// Documentation link check: every intra-repo markdown link must resolve
// to a real file, so the docs index (README → docs/*.md → sources) can't
// rot silently. External http(s) links are not fetched.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#ifndef MASC_SOURCE_DIR
#error "MASC_SOURCE_DIR must be defined by the build"
#endif

namespace {

namespace fs = std::filesystem;

bool skip_dir(const fs::path& p) {
  const std::string name = p.filename().string();
  return name == ".git" || name == "build" || name == "Testing" ||
         name.rfind("build-", 0) == 0;
}

std::vector<fs::path> markdown_files(const fs::path& root) {
  std::vector<fs::path> out;
  std::vector<fs::path> stack{root};
  while (!stack.empty()) {
    const fs::path dir = stack.back();
    stack.pop_back();
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.is_directory()) {
        if (!skip_dir(entry.path())) stack.push_back(entry.path());
      } else if (entry.path().extension() == ".md") {
        out.push_back(entry.path());
      }
    }
  }
  return out;
}

bool is_external(const std::string& target) {
  return target.rfind("http://", 0) == 0 || target.rfind("https://", 0) == 0 ||
         target.rfind("mailto:", 0) == 0;
}

TEST(DocsLinks, AllIntraRepoMarkdownLinksResolve) {
  const fs::path root{MASC_SOURCE_DIR};
  ASSERT_TRUE(fs::exists(root));
  const auto files = markdown_files(root);
  ASSERT_FALSE(files.empty());

  // [text](target) — target up to the closing paren, no nesting needed
  // for our docs. Fragments (#anchor) are stripped before checking.
  const std::regex link(R"(\]\(([^)\s]+)\))");
  std::vector<std::string> broken;
  for (const auto& file : files) {
    std::ifstream in(file);
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    for (auto it = std::sregex_iterator(text.begin(), text.end(), link);
         it != std::sregex_iterator(); ++it) {
      std::string target = (*it)[1].str();
      if (is_external(target)) continue;
      const auto hash = target.find('#');
      if (hash != std::string::npos) target = target.substr(0, hash);
      if (target.empty()) continue;  // pure in-page anchor
      const fs::path resolved = file.parent_path() / target;
      if (!fs::exists(resolved))
        broken.push_back(fs::relative(file, root).string() + " -> " + target);
    }
  }
  EXPECT_TRUE(broken.empty()) << [&] {
    std::string msg = "broken links:\n";
    for (const auto& b : broken) msg += "  " + b + "\n";
    return msg;
  }();
}

// The documentation set promised by the README's docs index.
TEST(DocsLinks, CoreDocsExist) {
  const fs::path root{MASC_SOURCE_DIR};
  for (const char* doc : {"README.md", "ROADMAP.md", "docs/ISA.md",
                          "docs/ASCAL.md", "docs/SIMULATOR.md",
                          "docs/PERF.md", "docs/MULTICHIP.md",
                          "docs/SERVER.md",
                          "docs/RELIABILITY.md", "docs/CLUSTER.md",
                          "docs/CACHE.md", "docs/NET.md"}) {
    EXPECT_TRUE(fs::exists(root / doc)) << doc;
  }
}

// Sections other docs and the README link to by name. A heading rename
// would leave those references dangling without breaking any file-level
// link, so pin the ones the lane-batching docs depend on.
TEST(DocsLinks, LaneBatchingSectionsPresent) {
  const fs::path root{MASC_SOURCE_DIR};
  const auto contains = [&](const char* rel, const std::string& needle) {
    std::ifstream in(root / rel);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str().find(needle) != std::string::npos;
  };
  EXPECT_TRUE(contains("docs/PERF.md", "## Lane batching"));
  EXPECT_TRUE(contains("docs/SIMULATOR.md", "### Lane batching"));
  EXPECT_TRUE(contains("docs/SERVER.md", "`--batch-lanes N`"));
  EXPECT_TRUE(contains("docs/CLUSTER.md", "`--batch-lanes N`"));
  EXPECT_TRUE(contains("README.md", "`--batch-lanes N`"));
}

// Source comments cite docs/NET.md sections by name (e.g. `docs/NET.md
// "Negotiation"`); pin the headings those citations resolve to.
TEST(DocsLinks, NetSectionsPresent) {
  const fs::path root{MASC_SOURCE_DIR};
  const auto contains = [&](const char* rel, const std::string& needle) {
    std::ifstream in(root / rel);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str().find(needle) != std::string::npos;
  };
  EXPECT_TRUE(contains("docs/NET.md", "## Protocol v2"));
  EXPECT_TRUE(contains("docs/NET.md", "### Negotiation"));
  EXPECT_TRUE(contains("docs/NET.md", "### Pipelining"));
  EXPECT_TRUE(contains("docs/NET.md", "### cache_get"));
  EXPECT_TRUE(contains("docs/NET.md", "## Timers"));
  EXPECT_TRUE(contains("docs/NET.md", "## Benchmarks"));
  EXPECT_TRUE(contains("docs/SERVER.md", "`hello`"));
  EXPECT_TRUE(contains("docs/CLUSTER.md", "`--io-threads N`"));
  EXPECT_TRUE(contains("docs/SERVER.md", "`--io-threads N`"));
}

}  // namespace
