// Simulation-service tests: the wire protocol, the bounded queue's
// all-or-nothing backpressure, deadline/cancellation paths, batching,
// live metrics — and the headline contract: results served to N
// concurrent clients are bit-identical to serial runs of the same
// (config, program, seed), because the service only ever batches pure
// simulations.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ascal/codegen.hpp"
#include "assembler/assembler.hpp"
#include "common/base64.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/random.hpp"
#include "fault/fault.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/machine.hpp"
#include "sim/sweep.hpp"

namespace masc {
namespace {

using serve::Client;
using serve::Server;
using serve::ServerOptions;
using namespace std::chrono_literals;

// --- helpers ----------------------------------------------------------

/// Reduction-dense kernel (every rsum result consumed immediately):
/// cycle counts are hazard-sensitive, a good determinism probe.
std::string reduction_kernel(int rounds) {
  std::string src = "pindex p1\n";
  for (int i = 0; i < rounds; ++i) {
    src += "rsum r1, p1\n";
    src += "padds p2, r1, p1\n";
  }
  src += "halt\n";
  return src;
}

std::string mixed_kernel(int rounds) {
  std::string src = "pindex p1\nli r2, 3\npbcast p3, r2\n";
  for (int i = 0; i < rounds; ++i) {
    src += "pclt pf1, p3, p1\n";
    src += "padd p4, p1, p3 ?pf1\n";
    src += "rcount r3, pf1\n";
    src += "add r4, r4, r3\n";
  }
  src += "halt\n";
  return src;
}

const char* kSpinForever = "loop: j loop\n";

struct JobSpec {
  std::string source;
  std::uint32_t pes = 8;
  std::uint32_t threads = 4;
  std::uint64_t seed = 0;
  std::string label;
};

std::string job_json(const JobSpec& spec, const std::string& extra = "") {
  std::string out = "{\"config\":{\"pes\":" + std::to_string(spec.pes) +
                    ",\"threads\":" + std::to_string(spec.threads) +
                    ",\"width\":16},\"program\":{\"source\":\"" +
                    json_escape(spec.source) + "\"},\"seed\":" +
                    std::to_string(spec.seed) + ",\"label\":\"" +
                    json_escape(spec.label) + "\"";
  if (!extra.empty()) out += "," + extra;
  out += "}";
  return out;
}

std::string submit_request(const std::vector<std::string>& jobs,
                           const std::string& extra = "") {
  std::string out = "{\"op\":\"submit\"";
  if (!extra.empty()) out += "," + extra;
  out += ",\"jobs\":[";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (i) out += ",";
    out += jobs[i];
  }
  out += "]}";
  return out;
}

std::vector<std::uint64_t> submit_ok(Client& c,
                                     const std::vector<std::string>& jobs,
                                     const std::string& extra = "") {
  const json::Value resp = c.request(submit_request(jobs, extra));
  EXPECT_TRUE(resp.get_bool("ok", false)) << "submit failed";
  std::vector<std::uint64_t> ids;
  const json::Value* arr = resp.find("ids");
  if (arr)
    for (const auto& id : arr->as_array()) ids.push_back(id.as_uint());
  EXPECT_EQ(ids.size(), jobs.size());
  return ids;
}

std::string result_request(std::uint64_t id, bool wait,
                           std::uint64_t timeout_ms = 30'000) {
  return "{\"op\":\"result\",\"id\":" + std::to_string(id) +
         ",\"wait\":" + (wait ? "true" : "false") +
         ",\"timeout_ms\":" + std::to_string(timeout_ms) + "}";
}

/// Poll job status until it reaches `state` (serialized via the wire).
void await_state(Client& c, std::uint64_t id, const std::string& state) {
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  for (;;) {
    const json::Value resp =
        c.request("{\"op\":\"status\",\"id\":" + std::to_string(id) + "}");
    ASSERT_TRUE(resp.get_bool("ok", false));
    if (resp.get_string("state", "") == state) return;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "job " << id << " never reached state " << state;
    std::this_thread::sleep_for(2ms);
  }
}

/// The exact serial-run stats JSON the server must have embedded for
/// this job, computed on this thread with a plain Machine.
std::string serial_stats_json(const JobSpec& spec) {
  MachineConfig cfg;
  cfg.num_pes = spec.pes;
  cfg.num_threads = spec.threads;
  cfg.word_width = 16;
  cfg.validate();
  Machine m(cfg);
  m.load(assemble(spec.source));
  EXPECT_TRUE(m.run(100'000'000));
  return to_json(m.stats());
}

// --- the runner's queue -----------------------------------------------

/// Records what a SweepRunner reports for admitted jobs.
struct SinkLog {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::size_t> started, done;
  std::shared_ptr<SweepSink> sink = std::make_shared<SweepSink>();

  SinkLog() {
    sink->started = [this](std::size_t i) {
      const std::lock_guard<std::mutex> lock(mu);
      started.push_back(i);
      cv.notify_all();
    };
    sink->done = [this](SweepResult&& r) {
      const std::lock_guard<std::mutex> lock(mu);
      done.push_back(r.index);
      cv.notify_all();
    };
  }
  void await(const std::vector<std::size_t>& v, std::size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, 10s, [&] { return v.size() >= n; }));
  }
};

SweepTask task_for(const std::string& source, std::size_t index,
                   CancelToken cancel = nullptr) {
  auto job = std::make_shared<SweepJob>();
  job->cfg.num_pes = 4;
  job->cfg.num_threads = 1;
  job->program = assemble(source);
  job->cancel = std::move(cancel);
  return {std::move(job), index};
}

TEST(SweepRunnerQueue, AdmissionIsAllOrNothing) {
  SweepRunner runner(1);
  SinkLog log;
  std::vector<SweepResult> hits;  // stays empty: no cache attached
  const CancelToken stop = make_cancel_token();
  const std::string quick = reduction_kernel(2);
  ASSERT_TRUE(runner.admit({task_for(kSpinForever, 0, stop)}, log.sink, 3,
                           hits));
  log.await(log.started, 1);  // the only worker is busy; the queue is empty
  EXPECT_TRUE(runner.admit({task_for(quick, 1), task_for(quick, 2)}, log.sink,
                           3, hits));
  // Only one slot free: reject both.
  EXPECT_FALSE(runner.admit({task_for(quick, 3), task_for(quick, 4)},
                            log.sink, 3, hits));
  EXPECT_TRUE(runner.admit({task_for(quick, 3)}, log.sink, 3, hits));
  EXPECT_EQ(runner.queued(), 3u);
  stop->store(true);
  log.await(log.done, 4);
  EXPECT_EQ(log.done, (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(runner.queued(), 0u);
}

TEST(SweepRunnerQueue, CloseDrainsThenReturnsEmpty) {
  SweepRunner runner(1);
  SinkLog log;
  std::vector<SweepResult> hits;  // stays empty: no cache attached
  const CancelToken stop = make_cancel_token();
  const std::string quick = reduction_kernel(2);
  ASSERT_TRUE(runner.admit({task_for(kSpinForever, 7, stop)}, log.sink, 4,
                           hits));
  log.await(log.started, 1);
  ASSERT_TRUE(runner.admit({task_for(quick, 8), task_for(quick, 9)}, log.sink,
                           4, hits));
  stop->store(true);
  runner.close();  // the queued jobs still run before the workers exit
  EXPECT_FALSE(runner.admit({task_for(quick, 10)}, log.sink, 4, hits));
  EXPECT_EQ(log.done, (std::vector<std::size_t>{7, 8, 9}));
  EXPECT_EQ(runner.queued(), 0u);
}

// --- protocol / JSON --------------------------------------------------

TEST(ServeProtocol, JsonParserHandlesTheWireDialect) {
  const json::Value v = parse_json(
      "{\"a\":1,\"b\":-2.5,\"s\":\"x\\n\\u0041\",\"arr\":[true,false,null],"
      "\"nested\":{\"k\":18446744073709551615}}");
  EXPECT_EQ(v.get_int("a", 0), 1);
  EXPECT_DOUBLE_EQ(v.get_number("b", 0), -2.5);
  EXPECT_EQ(v.get_string("s", ""), "x\nA");
  EXPECT_EQ(v.find("arr")->as_array().size(), 3u);
  EXPECT_TRUE(v.find("arr")->as_array()[2].is_null());
  // 2^64-1 does not fit int64: parsed as a (lossy) double, not integer.
  EXPECT_FALSE(v.find("nested")->find("k")->is_integer);

  EXPECT_THROW(parse_json("{\"a\":}"), JsonError);
  EXPECT_THROW(parse_json("[1,2"), JsonError);
  EXPECT_THROW(parse_json("{} trailing"), JsonError);
  EXPECT_THROW(parse_json("\"\x01\""), JsonError);
  EXPECT_THROW(parse_json(""), JsonError);
}

TEST(ServeProtocol, MembersAndElementsAreTheTextAsWritten) {
  const std::string doc =
      " { \"op\" : \"submit\",\n\"jobs\":[ {\"b\":1, \"a\":\"x\\u0041\"} ,\t[2] ,"
      "\"s\" ] , \"k\\n\":null}\r\n";
  const auto members = json::object_members(doc);
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "op");
  EXPECT_EQ(members[0].second, "\"submit\"");
  EXPECT_EQ(members[1].first, "jobs");
  EXPECT_EQ(members[2].first, "k\n");  // keys decoded, values as written
  EXPECT_EQ(members[2].second, "null");
  const auto elems = json::array_elements(members[1].second);
  ASSERT_EQ(elems.size(), 3u);
  EXPECT_EQ(elems[0], "{\"b\":1, \"a\":\"x\\u0041\"}");
  EXPECT_EQ(elems[1], "[2]");
  EXPECT_EQ(elems[2], "\"s\"");
  // The same pass can split one member's array: the first member so
  // keyed, its key matched decoded.
  std::vector<std::string_view> split;
  EXPECT_EQ(json::object_members(doc, "jobs", &split), members);
  EXPECT_EQ(split, elems);
  split.clear();
  json::object_members("{\"j\\u006fbs\":[1 , 2],\"jobs\":[3]}", "jobs", &split);
  EXPECT_EQ(split, (std::vector<std::string_view>{"1", "2"}));
  split.clear();
  json::object_members("{\"jobs\":7,\"jobs\":[3]}", "jobs", &split);
  EXPECT_TRUE(split.empty());
  EXPECT_THROW(json::object_members("{\"jobs\":[1,]}", "jobs", &split),
               JsonError);
  // member_texts finds several members in one walk, each the first so
  // keyed.
  const std::string_view keys[] = {"b", "zz", "a"};
  std::string_view texts[3];
  json::member_texts("{\"a\":1, \"b\" : [ 2 ] ,\"a\":3}", keys, texts);
  EXPECT_EQ(texts[0], "[ 2 ]");
  EXPECT_TRUE(texts[1].empty());
  EXPECT_EQ(texts[2], "1");
  // A quote an odd run of backslashes escapes does not end a string.
  const std::string quoted =
      R"({"a":"x\\","b":["y\"z\\\"]"],"c":{"d":"\\\\"},"e":1})";
  EXPECT_EQ(json::member_text(quoted, "b"), R"(["y\"z\\\"]"])");
  EXPECT_EQ(json::member_text(quoted, "c"), R"({"d":"\\\\"})");
  EXPECT_EQ(json::member_text(quoted, "e"), "1");
  EXPECT_NO_THROW(parse_json(quoted));
  EXPECT_TRUE(json::array_elements(" [ ] ").empty());
  EXPECT_TRUE(json::object_members("{}").empty());
  // Only the kind asked for, and only one whole document.
  EXPECT_THROW(json::array_elements("{}"), JsonError);
  EXPECT_THROW(json::object_members("[]"), JsonError);
  EXPECT_THROW(json::array_elements("[1] [2]"), JsonError);
  EXPECT_THROW(json::object_members("{\"a\":1"), JsonError);
}

TEST(ServeProtocol, MutatedDocumentsScanAndParseAlike) {
  // object_members/array_elements check without building a Value; they
  // must refuse exactly the documents parse_json refuses, and what
  // parse_json builds must read back the same. Mutate valid documents
  // and compare.
  const std::vector<std::string> seeds = {
      "{\"op\":\"submit\",\"jobs\":[{\"program\":{\"source\":"
      "\"li r1, 100\\nloop: addi r1, r1, -1\\nbne r1, r0, loop\\nhalt\\n\"},"
      "\"seed\":3,\"x\":[1.5e3,-0,true,false,null,\"\\ud83d\\ude00\"]}]}",
      "[{\"a\":\"abcdefghijklmnopqrstuvwxyz0123456789\\t\\\"\\/\"},[[]],{},-12.5E-2,"
      "123456789012345678,-9223372036854775808,99999999999999999999,-0]",
  };
  const std::string alphabet = "{}[]:,\"\\/ \n\t\x01\x1f-+.eE0123456789abtfnru";
  Rng rng(0x5ca77e2);
  int refused = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    std::string doc = seeds[rng.next_below(seeds.size())];
    for (int m = 1 + static_cast<int>(rng.next_below(3)); m > 0; --m) {
      const std::size_t at = rng.next_below(doc.size() + 1);
      const char c = alphabet[rng.next_below(alphabet.size())];
      switch (rng.next_below(3)) {
        case 0: doc.insert(at, 1, c); break;
        case 1: if (at < doc.size()) doc.erase(at, 1); break;
        default: if (at < doc.size()) doc[at] = c; break;
      }
    }
    bool parsed = true;
    json::Value v;
    try {
      v = parse_json(doc);
    } catch (const JsonError&) {
      parsed = false;
    }
    const auto scans = [&](bool object) {
      try {
        std::vector<std::string_view> jobs;
        if (object)
          json::object_members(doc, "jobs", &jobs);
        else
          json::array_elements(doc);
        return true;
      } catch (const JsonError&) {
        return false;
      }
    };
    EXPECT_EQ(scans(true), parsed && v.is_object()) << doc;
    EXPECT_EQ(scans(false), parsed && v.is_array()) << doc;
    if (parsed) {
      // A double that reads back as an integer (-0.0 prints as "-0")
      // settles after one round trip.
      const std::string once = json::serialize(parse_json(json::serialize(v)));
      EXPECT_EQ(json::serialize(parse_json(once)), once) << doc;
    }
    refused += parsed ? 0 : 1;
  }
  EXPECT_GT(refused, 1000);  // the mutations do break documents
}

TEST(ServeProtocol, NegativeZeroRoundTripsAsADouble) {
  // parse → serialize → parse keeps a double -0.0 a double -0.0 (an
  // underflowing literal reads as one too); the integer -0 stays the
  // integer 0.
  for (const char* text : {"-0.0", "-0e0", "-12.5E-2123456789012345678"}) {
    const json::Value once = parse_json(text);
    ASSERT_FALSE(once.is_integer) << text;
    const std::string printed = json::serialize(once);
    const json::Value twice = parse_json(printed);
    EXPECT_FALSE(twice.is_integer) << text << " printed as " << printed;
    EXPECT_EQ(twice.as_number(), 0.0) << text;
    EXPECT_TRUE(std::signbit(twice.as_number())) << text << " printed as " << printed;
    EXPECT_EQ(json::serialize(twice), printed);
  }
  const json::Value doc = parse_json("{\"a\":[-0.0,-0],\"b\":{\"c\":-0.0}}");
  EXPECT_EQ(json::serialize(doc), "{\"a\":[-0.0,0],\"b\":{\"c\":-0.0}}");
  EXPECT_EQ(json::serialize(parse_json(json::serialize(doc))), json::serialize(doc));
}

TEST(ServeProtocol, ResultAnswerBodyIsFoundByItsPrefix) {
  const std::string body = "{\"index\":7,\"ipc\":0.25}";
  const std::string answer = serve::result_answer(42, body);
  EXPECT_EQ(answer, "{\"ok\":true,\"type\":\"result\",\"id\":42,\"result\":" +
                        body + "}");
  EXPECT_EQ(serve::result_answer_body(answer), body);
  EXPECT_EQ(json::member_text(answer, "result"), body);
  // Anything else is not recognised, so a proxy parses it instead.
  EXPECT_TRUE(serve::result_answer_body(
                  "{\"ok\":false,\"error\":\"not_ready\",\"id\":42}")
                  .empty());
  EXPECT_TRUE(serve::result_answer_body(
                  "{\"ok\":true,\"type\":\"result\",\"id\":,\"result\":{}}")
                  .empty());
  EXPECT_TRUE(serve::result_answer_body(
                  "{\"ok\":true,\"type\":\"result\",\"id\":1, \"result\":{}}")
                  .empty());
}

TEST(ServeProtocol, ConfigDecodingAppliesDefaultsAndValidates) {
  const json::Value v =
      parse_json("{\"pes\":32,\"threads\":8,\"width\":16,\"sched\":\"smt\","
                 "\"issue_width\":2}");
  const MachineConfig cfg = serve::config_from_json(v);
  EXPECT_EQ(cfg.num_pes, 32u);
  EXPECT_EQ(cfg.num_threads, 8u);
  EXPECT_EQ(cfg.word_width, 16u);
  EXPECT_EQ(cfg.sched_policy, ThreadSchedPolicy::kSmt);
  EXPECT_EQ(cfg.issue_width, 2u);
  EXPECT_EQ(serve::config_from_json(parse_json("{}")).num_pes,
            MachineConfig{}.num_pes);
  EXPECT_THROW(serve::config_from_json(parse_json("{\"width\":7}")),
               ConfigError);  // validate() rejects the geometry
  EXPECT_THROW(serve::config_from_json(parse_json("{\"sched\":\"wat\"}")),
               JsonError);
}

TEST(ServeProtocol, ProgramDecodingAcceptsAllThreeForms) {
  const Program from_source = serve::program_from_json(
      parse_json("{\"source\":\"li r1, 7\\nhalt\\n\"}"));
  EXPECT_FALSE(from_source.text.empty());

  const Program from_ascal = serve::program_from_json(
      parse_json("{\"ascal\":\"pint v; v = index() + 1;\"}"));
  EXPECT_FALSE(from_ascal.text.empty());

  std::string text_json = "{\"text\":[";
  for (std::size_t i = 0; i < from_source.text.size(); ++i) {
    if (i) text_json += ",";
    text_json += std::to_string(from_source.text[i]);
  }
  text_json += "],\"entry\":0}";
  const Program from_image = serve::program_from_json(parse_json(text_json));
  EXPECT_EQ(from_image.text, from_source.text);

  EXPECT_THROW(serve::program_from_json(parse_json("{}")), JsonError);
  EXPECT_THROW(serve::program_from_json(
                   parse_json("{\"source\":\"not an opcode\"}")),
               AssemblyError);
}

TEST(ServeProtocol, JsonEscapeRoundTripsRandomBytes) {
  // Runs needing no escape are bulk-copied; every byte must still come
  // back unchanged through the parser, escapes and all.
  Rng rng(0x657363617065ULL);
  for (int trial = 0; trial < 500; ++trial) {
    std::string bytes(rng.next_below(200), '\0');
    for (char& ch : bytes) {
      // Bias towards the bytes the escaper treats specially.
      const std::uint64_t pick = rng.next_below(4);
      if (pick == 0) ch = "\"\\\n\t\b\f\r/"[rng.next_below(8)];
      else if (pick == 1) ch = static_cast<char>(rng.next_below(0x20));
      else ch = static_cast<char>(rng.next_below(256));
    }
    const std::string escaped = json_escape(bytes);
    ASSERT_EQ(parse_json("\"" + escaped + "\"").as_string(), bytes)
        << "trial " << trial;
    const json::Value v = parse_json("{\"k\":\"" + escaped + "\"}");
    EXPECT_EQ(json::serialize(v), "{\"k\":\"" + escaped + "\"}");
  }
}

TEST(ServeProtocol, MemberTextIsTheValueAsWritten) {
  const std::string doc =
      " {\"ok\":true, \"type\" : \"result\",\"s\":\"a\\\",}\\\\\","
      "\"result\": {\"x\":[1,{\"y\":\"}\"}],\"ipc\":0.666667} ,\"n\":-1.5e3 }";
  EXPECT_EQ(json::member_text(doc, "result"),
            "{\"x\":[1,{\"y\":\"}\"}],\"ipc\":0.666667}");
  EXPECT_EQ(json::member_text(doc, "s"), "\"a\\\",}\\\\\"");
  EXPECT_EQ(json::member_text(doc, "type"), "\"result\"");
  EXPECT_EQ(json::member_text(doc, "ok"), "true");
  EXPECT_EQ(json::member_text(doc, "n"), "-1.5e3");
  EXPECT_TRUE(json::member_text(doc, "x").empty());  // nested, not top-level
  EXPECT_TRUE(json::member_text("[1,2]", "ok").empty());
  EXPECT_TRUE(json::member_text("{}", "ok").empty());
}

/// A source unique to one test, so the process-wide program memo has
/// never seen it before.
std::string fresh_source(const std::string& tag, int n) {
  return "; " + tag + "\nmain:\n  li r1, " + std::to_string(n) +
         "\n  la r2, tbl\n  lw r3, 0(r2)\nloop:\n  addi r1, r1, -1\n"
         "  bne r1, r0, loop\n  halt\n.data\ntbl: .word " +
         std::to_string(n) + ", 7, 9\n";
}

json::Value source_program(const std::string& source) {
  return parse_json("{\"source\":\"" + json_escape(source) + "\"}");
}

TEST(ServeProtocol, MemoizedProgramEqualsAFreshAssembly) {
  const std::string source = fresh_source("memo-equal", 21);
  const json::Value v = source_program(source);
  // First sighting assembles and remembers the hash; the second
  // assembles and stores; the third is served from the memo.
  const Program first = serve::program_from_json(v);
  const Program second = serve::program_from_json(v);
  const std::uint64_t hits = serve::program_memo_stats().hits;
  const Program memoized = serve::program_from_json(v);
  EXPECT_EQ(serve::program_memo_stats().hits, hits + 1);

  const Program fresh = assemble(source);
  for (const Program* p : {&first, &second, &memoized}) {
    EXPECT_EQ(p->text, fresh.text);
    EXPECT_EQ(p->data, fresh.data);
    EXPECT_EQ(p->entry, fresh.entry);
    EXPECT_EQ(p->symbols, fresh.symbols);
  }
  SweepJob memo_job;
  memo_job.cfg.validate();
  memo_job.program = memoized;
  SweepJob fresh_job = memo_job;
  fresh_job.program = fresh;
  EXPECT_EQ(sweep_cache_key(memo_job), sweep_cache_key(fresh_job));

  // The kind is part of the key: the same text as ASCAL is a different
  // program (here: one that does not compile).
  EXPECT_THROW(serve::program_from_json(
                   parse_json("{\"ascal\":\"" + json_escape(source) + "\"}")),
               std::exception);

  const std::string ascal = "pint v; v = index() + 3;";
  const json::Value av = parse_json("{\"ascal\":\"" + ascal + "\"}");
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(serve::program_from_json(av).text,
              assemble(ascal::compile(ascal).assembly).text);
}

TEST(ServeProtocol, BadSourceFailsTheSameEveryTime) {
  const json::Value bad = source_program("li r1, 1\nfrobnicate r2\nhalt\n");
  std::string first;
  for (int i = 0; i < 4; ++i) {
    try {
      serve::program_from_json(bad);
      ADD_FAILURE() << "bad source assembled on attempt " << i;
    } catch (const AssemblyError& e) {
      if (i == 0) first = e.what();
      EXPECT_EQ(e.what(), first) << "attempt " << i;
    }
  }
  EXPECT_FALSE(first.empty());
}

TEST(ServeProtocol, ProgramMemoNeverExceedsItsBound) {
  // Every source sighted twice, so every one is admitted.
  for (std::size_t i = 0; i < serve::kProgramMemoEntries + 64; ++i) {
    const json::Value v = source_program(
        fresh_source("memo-bound", static_cast<int>(i) + 1));
    serve::program_from_json(v);
    serve::program_from_json(v);
    ASSERT_LE(serve::program_memo_stats().entries, serve::kProgramMemoEntries);
  }
  EXPECT_EQ(serve::program_memo_stats().entries, serve::kProgramMemoEntries);
}

TEST(ServeProtocol, ConcurrentDecodesShareTheMemoRaceFree) {
  const std::string shared = fresh_source("memo-shared", 5);
  const Program want = assemble(shared);
  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      const json::Value sv = source_program(shared);
      for (int i = 0; i < 40; ++i) {
        if (serve::program_from_json(sv).text != want.text) ++mismatches;
        // Distinct sources from every thread churn admission and the
        // sightings table while the shared one is being served.
        const std::string own =
            fresh_source("memo-race-" + std::to_string(t), i % 8 + 1);
        if (serve::program_from_json(source_program(own)).text !=
            assemble(own).text)
          ++mismatches;
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// --- the service ------------------------------------------------------

ServerOptions test_options() {
  ServerOptions opts;
  opts.port = 0;        // ephemeral
  opts.workers = 2;
  opts.queue_capacity = 64;
  return opts;
}

/// Acceptance demo: ≥32 jobs from ≥4 concurrent clients, every result
/// bit-identical to a serial run, stats counters consistent after.
TEST(ServeServer, MultiClientStressBitIdenticalToSerial) {
  Server server(test_options());
  server.start();

  constexpr int kClients = 4;
  constexpr int kJobsPerClient = 8;
  const std::string programs[2] = {reduction_kernel(12), mixed_kernel(8)};

  // Job grid, distinct per (client, j): mixed programs, shapes, seeds.
  std::vector<std::vector<JobSpec>> specs(kClients);
  for (int c = 0; c < kClients; ++c)
    for (int j = 0; j < kJobsPerClient; ++j) {
      JobSpec s;
      s.source = programs[(c + j) % 2];
      s.pes = (j % 2) ? 4u : 8u;
      s.threads = (j % 4 < 2) ? 1u : 4u;
      s.seed = static_cast<std::uint64_t>(c * 100 + j);
      s.label = "c" + std::to_string(c) + ".j" + std::to_string(j);
      specs[c].push_back(s);
    }

  std::vector<std::vector<std::string>> raw_results(
      kClients, std::vector<std::string>(kJobsPerClient));
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        Client cl;
        cl.connect("127.0.0.1", server.port());
        // Two submit requests of 4 jobs each: exercises multi-job
        // admission and interleaves with the other clients.
        std::vector<std::uint64_t> ids;
        for (int half = 0; half < 2; ++half) {
          std::vector<std::string> batch;
          for (int j = half * 4; j < half * 4 + 4; ++j)
            batch.push_back(job_json(specs[c][j]));
          const json::Value resp = cl.request(submit_request(batch));
          if (!resp.get_bool("ok", false))
            throw std::runtime_error("submit rejected");
          for (const auto& id : resp.find("ids")->as_array())
            ids.push_back(id.as_uint());
        }
        for (int j = 0; j < kJobsPerClient; ++j)
          raw_results[c][j] = cl.request_raw(result_request(ids[j], true));
      } catch (const std::exception& e) {
        failures[c] = e.what();
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(failures[c], "") << "client " << c;

  for (int c = 0; c < kClients; ++c)
    for (int j = 0; j < kJobsPerClient; ++j) {
      const std::string& raw = raw_results[c][j];
      const json::Value resp = parse_json(raw);
      ASSERT_TRUE(resp.get_bool("ok", false)) << raw;
      // Bit-identical stats: the serial stats JSON must appear verbatim.
      EXPECT_NE(raw.find("\"stats\":" + serial_stats_json(specs[c][j])),
                std::string::npos)
          << "client " << c << " job " << j << ": " << raw;
      EXPECT_NE(raw.find("\"status\":\"finished\""), std::string::npos);
      EXPECT_NE(raw.find("\"label\":\"" + specs[c][j].label + "\""),
                std::string::npos);
    }

  // Counters must balance: everything submitted was completed.
  const json::Value stats = parse_json(server.stats_json());
  EXPECT_EQ(stats.get_uint("queue_depth", 99), 0u);
  EXPECT_EQ(stats.get_uint("in_flight", 99), 0u);
  const json::Value* counters = stats.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->get_uint("submitted", 0), 32u);
  EXPECT_EQ(counters->get_uint("completed", 0), 32u);
  EXPECT_EQ(counters->get_uint("failed", 1), 0u);
  EXPECT_EQ(counters->get_uint("rejected", 1), 0u);
  EXPECT_GE(counters->get_uint("batches", 0), 1u);
  std::uint64_t hist_total = 0;
  for (const auto& b : stats.find("host_ms_hist")->as_array())
    hist_total += b.as_uint();
  EXPECT_EQ(hist_total, 32u);

  server.stop();
}

TEST(ServeServer, BackpressureRejectsWholeSubmitWithRetryAfter) {
  ServerOptions opts = test_options();
  opts.workers = 1;
  opts.queue_capacity = 2;
  Server server(opts);
  server.start();

  Client c;
  c.connect("127.0.0.1", server.port());

  JobSpec blocker;
  blocker.source = kSpinForever;
  blocker.label = "blocker";
  const auto blocker_id = submit_ok(c, {job_json(blocker)})[0];
  await_state(c, blocker_id, "running");  // queue is now empty again

  JobSpec filler = blocker;
  filler.label = "filler";
  const auto fillers = submit_ok(c, {job_json(filler), job_json(filler)});

  // Queue full: a two-job submit must be rejected whole, with a hint.
  const json::Value rejected =
      c.request(submit_request({job_json(filler), job_json(filler)}));
  EXPECT_FALSE(rejected.get_bool("ok", true));
  EXPECT_EQ(rejected.get_string("error", ""), "queue_full");
  EXPECT_GE(rejected.get_uint("retry_after_ms", 0), 10u);

  // ... and a single job does not fit either (0 slots free).
  const json::Value rejected1 = c.request(submit_request({job_json(filler)}));
  EXPECT_FALSE(rejected1.get_bool("ok", true));

  // Unblock everything; rejected jobs must not have left any trace.
  for (const auto id : {blocker_id, fillers[0], fillers[1]})
    EXPECT_TRUE(c.request("{\"op\":\"cancel\",\"id\":" + std::to_string(id) +
                          "}").get_bool("ok", false));
  for (const auto id : {blocker_id, fillers[0], fillers[1]}) {
    const json::Value resp = c.request(result_request(id, true));
    ASSERT_TRUE(resp.get_bool("ok", false));
  }
  const json::Value stats = parse_json(server.stats_json());
  EXPECT_EQ(stats.find("counters")->get_uint("submitted", 0), 3u);
  EXPECT_EQ(stats.find("counters")->get_uint("rejected", 0), 3u);
  EXPECT_EQ(stats.find("counters")->get_uint("cancelled", 0), 3u);
  EXPECT_EQ(stats.get_uint("queue_depth", 99), 0u);

  server.stop();
}

TEST(ServeServer, DeadlineExceededIsReportedAsSuch) {
  Server server(test_options());
  server.start();
  Client c;
  c.connect("127.0.0.1", server.port());

  JobSpec spin;
  spin.source = kSpinForever;
  spin.label = "deadline-victim";
  const auto id =
      submit_ok(c, {job_json(spin, "\"deadline_ms\":100")})[0];
  const std::string raw = c.request_raw(result_request(id, true));
  const json::Value resp = parse_json(raw);
  ASSERT_TRUE(resp.get_bool("ok", false)) << raw;
  EXPECT_NE(raw.find("\"status\":\"deadline-exceeded\""), std::string::npos)
      << raw;
  EXPECT_NE(raw.find("\"finished\":false"), std::string::npos);

  const json::Value stats = parse_json(server.stats_json());
  EXPECT_EQ(stats.find("counters")->get_uint("deadline_exceeded", 0), 1u);
  server.stop();
}

TEST(ServeServer, CancellationOfQueuedAndRunningJobs) {
  ServerOptions opts = test_options();
  opts.workers = 1;
  Server server(opts);
  server.start();
  Client c;
  c.connect("127.0.0.1", server.port());

  JobSpec spin;
  spin.source = kSpinForever;
  spin.label = "running-victim";
  const auto running_id = submit_ok(c, {job_json(spin)})[0];
  await_state(c, running_id, "running");

  spin.label = "queued-victim";
  const auto queued_id = submit_ok(c, {job_json(spin)})[0];

  for (const auto id : {queued_id, running_id}) {
    const json::Value resp =
        c.request("{\"op\":\"cancel\",\"id\":" + std::to_string(id) + "}");
    ASSERT_TRUE(resp.get_bool("ok", false));
    EXPECT_TRUE(resp.get_bool("effective", false)) << "id " << id;
  }
  for (const auto id : {running_id, queued_id}) {
    const std::string raw = c.request_raw(result_request(id, true));
    EXPECT_NE(raw.find("\"status\":\"cancelled\""), std::string::npos) << raw;
  }

  // Cancelling a done job is a no-op; unknown ids are not_found.
  const json::Value again = c.request(
      "{\"op\":\"cancel\",\"id\":" + std::to_string(running_id) + "}");
  EXPECT_TRUE(again.get_bool("ok", false));
  EXPECT_FALSE(again.get_bool("effective", true));
  EXPECT_EQ(c.request("{\"op\":\"cancel\",\"id\":424242}")
                .get_string("error", ""),
            "not_found");
  server.stop();
}

TEST(ServeServer, ResultWaitNotReadyAndRelease) {
  ServerOptions opts = test_options();
  opts.workers = 1;
  Server server(opts);
  server.start();
  Client c;
  c.connect("127.0.0.1", server.port());

  JobSpec quick;
  quick.source = reduction_kernel(4);
  quick.label = "quick";
  JobSpec spin;
  spin.source = kSpinForever;
  spin.label = "spin";

  const auto spin_id = submit_ok(c, {job_json(spin)})[0];
  await_state(c, spin_id, "running");
  const auto quick_id = submit_ok(c, {job_json(quick)})[0];

  // Non-blocking fetch of a queued job: not_ready, with its state.
  const json::Value not_ready = c.request(result_request(quick_id, false));
  EXPECT_FALSE(not_ready.get_bool("ok", true));
  EXPECT_EQ(not_ready.get_string("error", ""), "not_ready");
  EXPECT_EQ(not_ready.get_string("state", ""), "queued");

  // Blocking fetch with a tiny timeout: still not_ready (spin blocks it).
  const json::Value timed_out =
      c.request(result_request(quick_id, true, 50));
  EXPECT_FALSE(timed_out.get_bool("ok", true));
  EXPECT_EQ(timed_out.get_string("error", ""), "not_ready");

  c.request("{\"op\":\"cancel\",\"id\":" + std::to_string(spin_id) + "}");
  const json::Value done = c.request(
      "{\"op\":\"result\",\"id\":" + std::to_string(quick_id) +
      ",\"wait\":true,\"timeout_ms\":30000,\"release\":true}");
  ASSERT_TRUE(done.get_bool("ok", false));

  // Released: the record is gone.
  EXPECT_EQ(c.request(result_request(quick_id, false)).get_string("error", ""),
            "not_found");
  EXPECT_EQ(c.request("{\"op\":\"status\",\"id\":" + std::to_string(quick_id) +
                      "}").get_string("error", ""),
            "not_found");
  server.stop();
}

std::uint64_t jobs_tracked(const Server& server) {
  return parse_json(server.stats_json()).get_uint("jobs_tracked", 0);
}

TEST(ServeServer, ReleaseReclaimsJobRecordsAndTheirKey) {
  const std::string journal_path = testing::TempDir() + "masc_reclaim_" +
                                   std::to_string(::getpid()) + ".journal";
  std::remove(journal_path.c_str());
  ServerOptions opts = test_options();
  opts.journal_path = journal_path;

  JobSpec a;
  a.source = reduction_kernel(3);
  a.label = "a";
  JobSpec b = a;
  b.seed = 1;
  b.label = "b";
  const std::string key = "\"key\":\"reclaim-me\"";
  const auto release = [](Client& c, std::uint64_t id) {
    return c.request("{\"op\":\"result\",\"id\":" + std::to_string(id) +
                     ",\"wait\":true,\"timeout_ms\":30000,\"release\":true}");
  };
  {
    Server server(opts);
    server.start();
    Client c;
    c.connect("127.0.0.1", server.port());
    const auto ids = submit_ok(c, {job_json(a), job_json(b)}, key);
    ASSERT_EQ(ids.size(), 2u);
    EXPECT_EQ(jobs_tracked(server), 2u);

    // While any job of the key is held, a resend is a duplicate.
    ASSERT_TRUE(release(c, ids[0]).get_bool("ok", false));
    EXPECT_EQ(jobs_tracked(server), 1u);
    const json::Value dup =
        c.request(submit_request({job_json(a), job_json(b)}, key));
    EXPECT_TRUE(dup.get_bool("duplicate", false));

    // Releasing the last one drops the key with it.
    ASSERT_TRUE(release(c, ids[1]).get_bool("ok", false));
    EXPECT_EQ(jobs_tracked(server), 0u);
    EXPECT_NE(server.metrics_text().find("masc_served_jobs_tracked 0\n"),
              std::string::npos);
    server.stop();
  }

  // Journal replay applies the same rule: neither the released records
  // nor their key come back, so the resend is new work.
  Server server(opts);
  server.start();
  EXPECT_EQ(jobs_tracked(server), 0u);
  Client c;
  c.connect("127.0.0.1", server.port());
  const json::Value again =
      c.request(submit_request({job_json(a), job_json(b)}, key));
  ASSERT_TRUE(again.get_bool("ok", false));
  EXPECT_FALSE(again.get_bool("duplicate", true));
  EXPECT_EQ(jobs_tracked(server), 2u);
  EXPECT_NE(server.metrics_text().find("masc_served_jobs_tracked 2\n"),
            std::string::npos);
  server.stop();
  std::remove(journal_path.c_str());
}

TEST(ServeServer, BadSourceGetsTheSameBadRequestOnEverySubmit) {
  Server server(test_options());
  server.start();
  Client c;
  c.connect("127.0.0.1", server.port());
  JobSpec bad;
  bad.source = "li r1, 2\nnot_an_opcode r1\nhalt\n";
  std::string first;
  for (int i = 0; i < 3; ++i) {
    const json::Value resp = c.request(submit_request({job_json(bad)}));
    EXPECT_FALSE(resp.get_bool("ok", true));
    EXPECT_EQ(resp.get_string("error", ""), "bad_request");
    if (i == 0) first = resp.get_string("detail", "");
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(resp.get_string("detail", ""), first) << "submit " << i;
  }
  EXPECT_EQ(jobs_tracked(server), 0u);
  server.stop();
}

TEST(ServeServer, ConcurrentSubmitsOfSharedAndDistinctSourcesAreRaceFree) {
  ServerOptions opts = test_options();
  opts.io_threads = 4;  // decodes run concurrently on several loops
  opts.cache_bytes = 1u << 20;
  Server server(opts);
  server.start();

  constexpr int kClients = 4;
  constexpr int kRounds = 6;
  JobSpec shared;
  shared.source = mixed_kernel(5);
  const std::string shared_want = serial_stats_json(shared);
  std::vector<std::thread> threads;
  std::atomic<int> wrong{0};
  for (int t = 0; t < kClients; ++t)
    threads.emplace_back([&, t] {
      Client c;
      c.connect("127.0.0.1", server.port());
      JobSpec own;
      own.source = reduction_kernel(2 + t);
      const std::string own_want = serial_stats_json(own);
      for (int r = 0; r < kRounds; ++r) {
        const auto ids = submit_ok(c, {job_json(shared), job_json(own)});
        if (ids.size() != 2) {
          ++wrong;
          continue;
        }
        for (int j = 0; j < 2; ++j) {
          const json::Value resp = c.request(
              "{\"op\":\"result\",\"id\":" + std::to_string(ids[j]) +
              ",\"wait\":true,\"timeout_ms\":30000,\"release\":true}");
          const json::Value* res = resp.find("result");
          const json::Value* st = res ? res->find("stats") : nullptr;
          if (!st || json::serialize(*st) !=
                         json::serialize(parse_json(j ? own_want
                                                      : shared_want)))
            ++wrong;
        }
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(jobs_tracked(server), 0u);
  server.stop();
}

TEST(ServeServer, EachAdmissionCountsOneBatchHoweverWorkersSplitIt) {
  ServerOptions opts = test_options();
  opts.workers = 2;
  Server server(opts);
  server.start();
  Client c;
  c.connect("127.0.0.1", server.port());

  JobSpec spin;
  spin.source = kSpinForever;
  spin.label = "gate";
  const auto gate_id = submit_ok(c, {job_json(spin)})[0];
  await_state(c, gate_id, "running");

  // Six quick jobs pile up behind the gate...
  std::vector<std::string> quick;
  for (int j = 0; j < 6; ++j) {
    JobSpec s;
    s.source = reduction_kernel(4);
    s.label = "q" + std::to_string(j);
    s.seed = static_cast<std::uint64_t>(j);
    quick.push_back(job_json(s));
  }
  const auto ids = submit_ok(c, quick);
  c.request("{\"op\":\"cancel\",\"id\":" + std::to_string(gate_id) + "}");
  for (const auto id : ids) {
    const std::string raw = c.request_raw(result_request(id, true));
    EXPECT_NE(raw.find("\"status\":\"finished\""), std::string::npos) << raw;
  }
  c.request_raw(result_request(gate_id, true));

  // ...and each admission counts one batch, however the workers split
  // its jobs: the gate's submit plus the six quick jobs' submit.
  const json::Value stats = parse_json(server.stats_json());
  EXPECT_EQ(stats.find("counters")->get_uint("batches", 0), 2u);
  server.stop();
}

/// --batch-lanes: jobs that pile up behind a gate are dispatched as
/// lockstep lane batches, bit-identical to serial runs, and the batch
/// counters surface in /stats JSON and Prometheus text.
TEST(ServeServer, LaneBatchingDefaultAppliesAndIsObservable) {
  ServerOptions opts = test_options();
  opts.workers = 2;
  opts.batch_lanes = 4;
  Server server(opts);
  server.start();
  Client c;
  c.connect("127.0.0.1", server.port());

  JobSpec spin;
  spin.source = kSpinForever;
  spin.label = "gate";
  const auto gate_id = submit_ok(c, {job_json(spin)})[0];
  await_state(c, gate_id, "running");

  // Six homogeneous jobs (same config/program, different seeds) queue up
  // behind the gate, then drain as lane batches of 4 + 2.
  std::vector<JobSpec> specs;
  std::vector<std::string> quick;
  for (int j = 0; j < 6; ++j) {
    JobSpec s;
    s.source = reduction_kernel(4);
    s.label = "q" + std::to_string(j);
    s.seed = static_cast<std::uint64_t>(j);
    specs.push_back(s);
    quick.push_back(job_json(s));
  }
  const auto ids = submit_ok(c, quick);
  c.request("{\"op\":\"cancel\",\"id\":" + std::to_string(gate_id) + "}");
  for (std::size_t j = 0; j < ids.size(); ++j) {
    const std::string raw = c.request_raw(result_request(ids[j], true));
    EXPECT_NE(raw.find("\"status\":\"finished\""), std::string::npos) << raw;
    // Batched execution must be indistinguishable from a serial run.
    EXPECT_NE(raw.find("\"stats\":" + serial_stats_json(specs[j])),
              std::string::npos)
        << raw;
  }
  c.request_raw(result_request(gate_id, true));

  const json::Value stats = parse_json(server.stats_json());
  const json::Value* batch = stats.find("batch");
  ASSERT_NE(batch, nullptr) << server.stats_json();
  EXPECT_EQ(batch->get_uint("batched_jobs", 0), 6u);
  EXPECT_GE(batch->get_uint("batch_flushes", 0), 2u);
  EXPECT_EQ(batch->get_uint("replayed_jobs", 99), 0u);
  EXPECT_EQ(batch->get_uint("faulted_lanes", 99), 0u);
  ASSERT_NE(batch->find("occupancy_log2"), nullptr);

  const std::string prom = server.metrics_text();
  EXPECT_NE(prom.find("masc_served_batch_flushes_total"), std::string::npos);
  EXPECT_NE(prom.find("masc_served_batch_jobs_total 6"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("masc_served_batch_occupancy_bucket{le=\"+Inf\"}"),
            std::string::npos);
  server.stop();
}

/// Work conservation: a short job submitted while another job's long
/// spin holds one worker runs at once on the other worker, instead of
/// waiting for the spin to finish.
TEST(ServeServer, ShortJobIsNotHeldBehindALongOne) {
  ServerOptions opts = test_options();
  opts.workers = 2;
  Server server(opts);
  server.start();
  Client c;
  c.connect("127.0.0.1", server.port());

  JobSpec spin;
  spin.source = kSpinForever;
  spin.pes = 4;
  spin.threads = 1;
  spin.label = "spin";
  const auto spin_id =
      submit_ok(c, {job_json(spin, "\"max_cycles\":100000000")})[0];
  await_state(c, spin_id, "running");

  JobSpec quick;
  quick.source = "li r1, 1\naddi r1, r1, 1\nhalt\n";
  quick.pes = 4;
  quick.threads = 1;
  quick.label = "quick";
  const auto t0 = std::chrono::steady_clock::now();
  const auto quick_id = submit_ok(c, {job_json(quick)})[0];
  const std::string raw = c.request_raw(result_request(quick_id, true));
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_NE(raw.find("\"status\":\"finished\""), std::string::npos) << raw;
  EXPECT_LT(waited, 50ms)
      << std::chrono::duration<double, std::milli>(waited).count() << " ms";

  c.request("{\"op\":\"cancel\",\"id\":" + std::to_string(spin_id) + "}");
  c.request_raw(result_request(spin_id, true));
  server.stop();
}

/// Lane formation across submits: with one worker busy, two 4-job
/// submits of one program queue up, and the worker then pulls all
/// eight as ONE 8-lane lockstep flush.
TEST(ServeServer, LanesFillAcrossSubmits) {
  ServerOptions opts = test_options();
  opts.workers = 1;
  opts.batch_lanes = 8;
  Server server(opts);
  server.start();
  Client c;
  c.connect("127.0.0.1", server.port());

  JobSpec spin;
  spin.source = kSpinForever;
  spin.label = "blocker";
  const auto blocker_id = submit_ok(c, {job_json(spin)})[0];
  await_state(c, blocker_id, "running");

  std::vector<JobSpec> specs;
  std::vector<std::uint64_t> ids;
  for (int s = 0; s < 2; ++s) {
    std::vector<std::string> jobs;
    for (int j = 0; j < 4; ++j) {
      JobSpec q;
      q.source = reduction_kernel(4);
      q.seed = static_cast<std::uint64_t>(4 * s + j);
      q.label = "q" + std::to_string(q.seed);
      specs.push_back(q);
      jobs.push_back(job_json(q));
    }
    for (const auto id : submit_ok(c, jobs)) ids.push_back(id);
  }
  c.request("{\"op\":\"cancel\",\"id\":" + std::to_string(blocker_id) + "}");
  for (std::size_t j = 0; j < ids.size(); ++j) {
    const std::string raw = c.request_raw(result_request(ids[j], true));
    EXPECT_NE(raw.find("\"stats\":" + serial_stats_json(specs[j])),
              std::string::npos)
        << raw;
  }
  c.request_raw(result_request(blocker_id, true));

  const json::Value stats = parse_json(server.stats_json());
  const json::Value* batch = stats.find("batch");
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->get_uint("batch_flushes", 0), 1u);
  EXPECT_EQ(batch->get_uint("batched_jobs", 0), 8u);
  const auto& occupancy = batch->find("occupancy_log2")->as_array();
  EXPECT_EQ(occupancy[4].as_uint(), 1u);  // bucket [8, 16)
  server.stop();
}

/// A submit-level "batch_lanes" (what masc-routerd --batch-lanes sends)
/// fills in each job that sets none; a job's own value wins; neither is
/// part of a cache key.
TEST(ServeServer, SubmitLevelBatchLanesFillsJobsThatSetNone) {
  ServerOptions opts = test_options();
  opts.workers = 1;  // no --batch-lanes: serial unless a submit says so
  opts.cache_bytes = 1 << 20;
  Server server(opts);
  server.start();
  Client c;
  c.connect("127.0.0.1", server.port());

  JobSpec spin;
  spin.source = kSpinForever;
  spin.label = "blocker";
  const auto blocker_id = submit_ok(c, {job_json(spin)})[0];
  await_state(c, blocker_id, "running");

  // Four jobs inherit the submit's 4 lanes; two more force serial. One
  // program over distinct data: six cache keys, one lane key.
  std::vector<JobSpec> specs;
  std::vector<std::string> jobs, plain;
  for (int j = 0; j < 6; ++j) {
    JobSpec q;
    q.source = ".data\nv: .word " + std::to_string(j) + "\n.text\n" +
               reduction_kernel(4);
    q.label = "q" + std::to_string(j);
    specs.push_back(q);
    jobs.push_back(job_json(q, j < 4 ? "" : "\"batch_lanes\":1"));
    plain.push_back(job_json(q));
  }
  const auto ids = submit_ok(c, jobs, "\"batch_lanes\":4");
  c.request("{\"op\":\"cancel\",\"id\":" + std::to_string(blocker_id) + "}");
  for (std::size_t j = 0; j < ids.size(); ++j) {
    const std::string raw = c.request_raw(result_request(ids[j], true));
    EXPECT_NE(raw.find("\"stats\":" + serial_stats_json(specs[j])),
              std::string::npos)
        << raw;
  }
  c.request_raw(result_request(blocker_id, true));
  const json::Value stats = parse_json(server.stats_json());
  const json::Value* batch = stats.find("batch");
  ASSERT_NE(batch, nullptr) << server.stats_json();
  EXPECT_EQ(batch->get_uint("batched_jobs", 0), 4u);
  EXPECT_EQ(batch->get_uint("batch_flushes", 0), 1u);

  // The same jobs without any lane width hit the cache, every one.
  for (std::size_t j = 0; j < jobs.size(); ++j)
    EXPECT_EQ(
        sweep_cache_key(serve::job_from_json(parse_json(jobs[j]), 4)),
        sweep_cache_key(serve::job_from_json(parse_json(plain[j]))));
  const auto again = submit_ok(c, plain);
  for (const auto id : again)
    c.request_raw(result_request(id, true));
  EXPECT_EQ(parse_json(server.stats_json()).find("cache")->get_uint("hits", 0),
            6u);
  server.stop();
}

TEST(ServeServer, MalformedRequestsGetErrorsNotDisconnects) {
  Server server(test_options());
  server.start();
  Client c;
  c.connect("127.0.0.1", server.port());

  EXPECT_EQ(c.request("this is not json").get_string("error", ""),
            "bad_request");
  EXPECT_EQ(c.request("{\"op\":\"frobnicate\"}").get_string("error", ""),
            "unknown_op");
  EXPECT_EQ(c.request("{\"op\":\"submit\",\"jobs\":[]}")
                .get_string("error", ""),
            "bad_request");
  EXPECT_EQ(c.request("{\"op\":\"status\"}").get_string("error", ""),
            "bad_request");
  // A job whose program does not assemble rejects the submit...
  JobSpec bad;
  bad.source = "definitely not assembly\n";
  bad.label = "bad";
  EXPECT_EQ(c.request(submit_request({job_json(bad)})).get_string("error", ""),
            "bad_request");
  // ...and the session is still perfectly usable.
  EXPECT_TRUE(c.request("{\"op\":\"ping\"}").get_bool("ok", false));

  const json::Value stats = parse_json(server.stats_json());
  EXPECT_EQ(stats.find("counters")->get_uint("submitted", 99), 0u);
  server.stop();
}

TEST(ServeServer, ShutdownOpRaisesTheFlag) {
  Server server(test_options());
  server.start();
  Client c;
  c.connect("127.0.0.1", server.port());
  EXPECT_FALSE(server.shutdown_requested());
  EXPECT_TRUE(c.request("{\"op\":\"shutdown\"}").get_bool("ok", false));
  EXPECT_TRUE(server.shutdown_requested());
  server.stop();
}

TEST(ServeServer, StopWhileJobsInFlightDischargesEverything) {
  ServerOptions opts = test_options();
  opts.workers = 1;
  Server server(opts);
  server.start();
  Client c;
  c.connect("127.0.0.1", server.port());

  JobSpec spin;
  spin.source = kSpinForever;
  spin.label = "orphan";
  const auto running = submit_ok(c, {job_json(spin)})[0];
  await_state(c, running, "running");
  submit_ok(c, {job_json(spin)});  // queued behind it

  // stop() must cancel the running job, discharge the queued one, and
  // return promptly (cooperative cancellation, not a join-forever).
  const auto t0 = std::chrono::steady_clock::now();
  server.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 10s);
}

// --- protocol fuzz corpus ---------------------------------------------
//
// Hostile bytes on the wire. The contract (docs/RELIABILITY.md): a
// payload that *parses as a frame* but isn't a valid request earns an
// error *response*; bytes that break the framing itself kill only that
// connection. Neither may wedge or crash the server.

/// Raw TCP connection, bypassing Client, for sending malformed bytes.
class RawConn {
 public:
  explicit RawConn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
        0);
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  int fd() const { return fd_; }

  void send_bytes(const std::string& bytes) {
    EXPECT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }
  /// Header declaring `len` payload bytes (which need not follow).
  static std::string header(std::uint32_t len) {
    std::string h(4, '\0');
    h[0] = static_cast<char>((len >> 24) & 0xFF);
    h[1] = static_cast<char>((len >> 16) & 0xFF);
    h[2] = static_cast<char>((len >> 8) & 0xFF);
    h[3] = static_cast<char>(len & 0xFF);
    return h;
  }
  /// True when the server closed its end within `timeout_ms`.
  bool closed_by_peer(int timeout_ms) {
    std::string ignored;
    try {
      return !serve::read_frame(fd_, ignored,
                                static_cast<std::uint64_t>(timeout_ms),
                                static_cast<std::uint64_t>(timeout_ms));
    } catch (const serve::ServeTimeout&) {
      return false;  // still open, just silent
    } catch (const serve::ServeError&) {
      return true;  // reset mid-read counts as closed
    }
  }

 private:
  int fd_ = -1;
};

TEST(ServeFuzz, TruncatedFramesKillOnlyTheirOwnConnection) {
  Server server(test_options());
  server.start();

  {
    RawConn half_header(server.port());
    half_header.send_bytes(RawConn::header(20).substr(0, 2));
  }  // close mid-header
  {
    RawConn half_payload(server.port());
    half_payload.send_bytes(RawConn::header(100) + "only ten b");
  }  // close mid-payload

  // The server shrugged both off and serves the next client normally.
  Client c;
  c.connect("127.0.0.1", server.port());
  EXPECT_TRUE(c.request("{\"op\":\"ping\"}").get_bool("ok", false));
  server.stop();
}

TEST(ServeFuzz, OversizedLengthPrefixDropsTheConnection) {
  Server server(test_options());
  server.start();

  RawConn evil(server.port());
  // Declares a 4 GiB frame: the server must refuse to allocate it and
  // drop the connection (a framing violation is unrecoverable)...
  evil.send_bytes(RawConn::header(0xFFFFFFFFu) + "padding");
  EXPECT_TRUE(evil.closed_by_peer(5000));

  // ...without collateral damage to well-behaved sessions.
  Client c;
  c.connect("127.0.0.1", server.port());
  EXPECT_TRUE(c.request("{\"op\":\"ping\"}").get_bool("ok", false));
  server.stop();
}

TEST(ServeFuzz, GarbageFrameCorpusGetsErrorResponsesNotDisconnects) {
  Server server(test_options());
  server.start();
  RawConn conn(server.port());

  const std::string corpus[] = {
      "",                                      // empty payload
      "not json at all",                       //
      std::string("\x00\x01\xfe\xff\x80", 5),  // binary junk, embedded NUL
      "{\"op\":}",                             // syntax error
      "[1,2,3]",                               // valid JSON, not an object
      "{}",                                    // object without an op
      "{\"op\":\"submit\",\"jobs\":[{\"program\":{}}]}",  // bad nested job
      std::string(64, '{'),                    // unterminated nesting
      "\"just a string\"",                     //
  };
  for (const std::string& payload : corpus) {
    serve::write_frame(conn.fd(), payload);
    std::string raw;
    ASSERT_TRUE(serve::read_frame(conn.fd(), raw))
        << "server dropped the session on: " << payload;
    const json::Value resp = parse_json(raw);
    EXPECT_FALSE(resp.get_bool("ok", true)) << raw;
    EXPECT_FALSE(resp.get_string("error", "").empty()) << raw;
  }
  // After the whole corpus, the same session still answers pings.
  serve::write_frame(conn.fd(), "{\"op\":\"ping\"}");
  std::string raw;
  ASSERT_TRUE(serve::read_frame(conn.fd(), raw));
  EXPECT_TRUE(parse_json(raw).get_bool("ok", false)) << raw;
  const json::Value stats = parse_json(server.stats_json());
  EXPECT_EQ(stats.find("counters")->get_uint("submitted", 99), 0u);
  server.stop();
}

// --- fault injection end to end ---------------------------------------

TEST(ServeFault, DroppedFrameIsSurvivedByTimeoutAndRetry) {
  ServerOptions opts = test_options();
  opts.io_timeout_ms = 500;  // server reaps the half-dead session
  Server server(opts);
  server.start();
  Client c;
  c.connect("127.0.0.1", server.port());
  c.set_frame_timeout_ms(300);

  // Exactly one fault: the next frame sent (the client's request) is
  // silently swallowed. The client times out waiting for a response,
  // reconnects, and the retry goes through.
  fault::FaultPlan plan;
  plan.seed = 11;
  plan.frame_drop = 1.0;
  plan.max_faults = 1;
  fault::ScopedInjector scoped(plan);

  serve::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_ms = 20;
  const json::Value resp = c.request_with_retry("{\"op\":\"ping\"}", policy);
  EXPECT_TRUE(resp.get_bool("ok", false));
  EXPECT_EQ(scoped->counts().frames_dropped, 1u);
  server.stop();
}

TEST(ServeFault, TruncatedFrameIsSurvivedByReconnectAndRetry) {
  ServerOptions opts = test_options();
  opts.io_timeout_ms = 300;  // the torn session stalls mid-frame: reap it
  Server server(opts);
  server.start();
  Client c;
  c.connect("127.0.0.1", server.port());
  c.set_frame_timeout_ms(300);

  fault::FaultPlan plan;
  plan.seed = 12;
  plan.frame_truncate = 1.0;
  plan.max_faults = 1;
  fault::ScopedInjector scoped(plan);

  serve::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_ms = 20;
  const json::Value resp = c.request_with_retry("{\"op\":\"ping\"}", policy);
  EXPECT_TRUE(resp.get_bool("ok", false));
  EXPECT_EQ(scoped->counts().frames_truncated, 1u);
  server.stop();
}

TEST(ServeFault, DispatchFailureIsRetriedUntilTheJobCompletes) {
  // The dispatcher hook bounces a whole batch back to the queue; with a
  // bounded fault budget the batch must eventually dispatch and every
  // result must still be bit-identical to the serial run.
  fault::FaultPlan plan;
  plan.seed = 13;
  plan.dispatch_fail = 1.0;
  plan.max_faults = 3;
  fault::ScopedInjector scoped(plan);

  Server server(test_options());
  server.start();
  Client c;
  c.connect("127.0.0.1", server.port());

  JobSpec spec;
  spec.source = reduction_kernel(6);
  spec.label = "bounced";
  const auto id = submit_ok(c, {job_json(spec)})[0];
  const std::string raw = c.request_raw(result_request(id, true));
  EXPECT_NE(raw.find("\"status\":\"finished\""), std::string::npos) << raw;
  EXPECT_NE(raw.find("\"stats\":" + serial_stats_json(spec)),
            std::string::npos)
      << raw;
  EXPECT_GE(scoped->counts().dispatches_failed, 1u);
  server.stop();
}

// --- timeouts and idle reaping ----------------------------------------

TEST(ServeServer, IdleSessionsAreReaped) {
  ServerOptions opts = test_options();
  opts.idle_timeout_ms = 150;
  Server server(opts);
  server.start();

  // A session that never speaks is closed by the server...
  RawConn mute(server.port());
  EXPECT_TRUE(mute.closed_by_peer(5000));

  // ...but one that keeps talking inside the idle window is not.
  Client chatty;
  chatty.connect("127.0.0.1", server.port());
  for (int i = 0; i < 4; ++i) {
    std::this_thread::sleep_for(50ms);
    EXPECT_TRUE(chatty.request("{\"op\":\"ping\"}").get_bool("ok", false))
        << "reaped while active, iteration " << i;
  }
  server.stop();
}

// --- extend over the wire ---------------------------------------------

TEST(ServeServer, ExtendResumesAnInterruptedJobFromItsCheckpoint) {
  const std::string journal_path = testing::TempDir() + "masc_extend_" +
                                   std::to_string(::getpid()) + ".journal";
  std::remove(journal_path.c_str());
  ServerOptions opts = test_options();
  opts.workers = 1;
  opts.journal_path = journal_path;
  Server server(opts);
  server.start();
  Client c;
  c.connect("127.0.0.1", server.port());

  auto cycles_of = [&](std::uint64_t id) -> std::uint64_t {
    const json::Value resp = parse_json(c.request_raw(result_request(id, true)));
    EXPECT_TRUE(resp.get_bool("ok", false));
    const json::Value* result = resp.find("result");
    if (!result) return 0;
    const json::Value* stats = result->find("stats");
    return stats ? stats->get_uint("cycles", 0) : 0;
  };

  JobSpec spin;
  spin.source = kSpinForever;
  spin.label = "extendee";
  const auto id = submit_ok(c, {job_json(spin)})[0];
  await_state(c, id, "running");
  std::this_thread::sleep_for(100ms);  // accumulate a few chunks
  ASSERT_TRUE(c.request("{\"op\":\"cancel\",\"id\":" + std::to_string(id) +
                        "}").get_bool("ok", false));
  const std::uint64_t first_cycles = cycles_of(id);
  ASSERT_GT(first_cycles, 0u);

  // Extend: the job requeues from its cancellation checkpoint.
  const json::Value ext = c.request(
      "{\"op\":\"extend\",\"id\":" + std::to_string(id) + "}");
  ASSERT_TRUE(ext.get_bool("ok", false)) << json::serialize(ext);
  EXPECT_TRUE(ext.get_bool("resumed", false));
  await_state(c, id, "running");
  std::this_thread::sleep_for(100ms);
  ASSERT_TRUE(c.request("{\"op\":\"cancel\",\"id\":" + std::to_string(id) +
                        "}").get_bool("ok", false));
  // The second leg continued from the first: cycles strictly advanced.
  EXPECT_GT(cycles_of(id), first_cycles);

  // Extend contract errors: unknown id, and a job that truly finished.
  EXPECT_EQ(c.request("{\"op\":\"extend\",\"id\":987654}")
                .get_string("error", ""),
            "not_found");
  JobSpec quick;
  quick.source = reduction_kernel(3);
  quick.label = "done";
  const auto done_id = submit_ok(c, {job_json(quick)})[0];
  c.request_raw(result_request(done_id, true));
  EXPECT_EQ(c.request("{\"op\":\"extend\",\"id\":" + std::to_string(done_id) +
                      "}").get_string("error", ""),
            "already_finished");

  server.stop();
  std::remove(journal_path.c_str());
}

// --- result cache over the wire ---------------------------------------

/// The serialized "stats" object embedded in a result response — the
/// bit-identity probe for cache hits.
std::string result_stats_of(Client& c, std::uint64_t id) {
  const json::Value resp = parse_json(c.request_raw(result_request(id, true)));
  EXPECT_TRUE(resp.get_bool("ok", false));
  const json::Value* result = resp.find("result");
  if (!result) return "";
  const json::Value* stats = result->find("stats");
  return stats ? json::serialize(*stats) : "";
}

TEST(ServeCache, RepeatSubmitServedFromCacheEvenWhenQueueIsFull) {
  ServerOptions opts = test_options();
  opts.workers = 1;
  opts.queue_capacity = 1;
  opts.cache_bytes = 16u << 20;
  Server server(opts);
  server.start();
  Client c;
  c.connect("127.0.0.1", server.port());

  // Cold run: simulated by the dispatcher, inserted on completion.
  JobSpec quick;
  quick.source = reduction_kernel(8);
  quick.label = "cold";
  const auto cold_id = submit_ok(c, {job_json(quick)})[0];
  const std::string cold_stats = result_stats_of(c, cold_id);
  ASSERT_FALSE(cold_stats.empty());

  // Saturate: a spinner occupies the worker, another fills the 1-slot
  // queue. (Spinners never finish, so they are never cached.)
  JobSpec spin;
  spin.source = kSpinForever;
  spin.label = "blocker";
  const auto blocker_id = submit_ok(c, {job_json(spin)})[0];
  await_state(c, blocker_id, "running");
  spin.label = "filler";
  const auto filler_id = submit_ok(c, {job_json(spin)})[0];

  // A fresh (uncached) job has nowhere to go...
  JobSpec fresh;
  fresh.source = mixed_kernel(4);
  fresh.label = "fresh";
  const json::Value rejected = c.request(submit_request({job_json(fresh)}));
  EXPECT_EQ(rejected.get_string("error", ""), "queue_full");

  // ...but the repeat of the cold job is served at admission, without a
  // queue slot, done before we even ask — and bit-identical.
  quick.label = "repeat";
  quick.seed = 7;  // metadata must not split the key
  const auto hit_id = submit_ok(c, {job_json(quick)})[0];
  const json::Value status = c.request(
      "{\"op\":\"status\",\"id\":" + std::to_string(hit_id) + "}");
  EXPECT_EQ(status.get_string("state", ""), "done");
  EXPECT_EQ(result_stats_of(c, hit_id), cold_stats);

  const json::Value stats = parse_json(server.stats_json());
  const json::Value* cache = stats.find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_TRUE(cache->get_bool("enabled", false));
  EXPECT_GE(cache->get_uint("hits", 0), 1u);
  EXPECT_GE(cache->get_uint("insertions", 0), 1u);
  EXPECT_EQ(stats.find("counters")->get_uint("submitted", 0), 4u);

  for (const auto id : {blocker_id, filler_id})
    c.request("{\"op\":\"cancel\",\"id\":" + std::to_string(id) + "}");
  server.stop();
}

TEST(ServeCache, StatsReportCacheDisabledByDefault) {
  Server server(test_options());  // cache_bytes = 0
  server.start();
  const json::Value stats = parse_json(server.stats_json());
  const json::Value* cache = stats.find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_FALSE(cache->get_bool("enabled", true));
  EXPECT_EQ(cache->find("hits"), nullptr);
  server.stop();
}

TEST(ServeCache, CacheHitIsJournaledAsCompletedJob) {
  const std::string journal_path = testing::TempDir() + "masc_cachehit_" +
                                   std::to_string(::getpid()) + ".journal";
  std::remove(journal_path.c_str());
  ServerOptions opts = test_options();
  opts.cache_bytes = 16u << 20;
  opts.journal_path = journal_path;

  std::uint64_t hit_id = 0;
  std::string hit_stats;
  {
    Server server(opts);
    server.start();
    Client c;
    c.connect("127.0.0.1", server.port());
    JobSpec quick;
    quick.source = reduction_kernel(8);
    quick.label = "original";
    const auto cold_id = submit_ok(c, {job_json(quick)})[0];
    const std::string cold_stats = result_stats_of(c, cold_id);
    quick.label = "replayed-hit";
    hit_id = submit_ok(c, {job_json(quick)})[0];
    hit_stats = result_stats_of(c, hit_id);
    EXPECT_EQ(hit_stats, cold_stats);
    server.stop();
  }

  // Restart on the journal with a COLD cache: the hit job must replay as
  // completed — served from its journaled done record, not re-run and
  // not re-queued.
  {
    Server server(opts);
    server.start();
    Client c;
    c.connect("127.0.0.1", server.port());
    const json::Value status = c.request(
        "{\"op\":\"status\",\"id\":" + std::to_string(hit_id) + "}");
    ASSERT_TRUE(status.get_bool("ok", false)) << json::serialize(status);
    EXPECT_EQ(status.get_string("state", ""), "done");
    EXPECT_EQ(result_stats_of(c, hit_id), hit_stats);
    server.stop();
  }
  std::remove(journal_path.c_str());
}

// --- cache ops over the wire (docs/CACHE.md) ---------------------------

TEST(ServeCache, CacheGetServesTheEncodedRunBitIdentically) {
  ServerOptions opts = test_options();
  opts.cache_bytes = 16u << 20;
  Server server(opts);
  server.start();
  Client c;
  c.connect("127.0.0.1", server.port());

  JobSpec quick;
  quick.source = reduction_kernel(6);
  quick.label = "donor";
  const auto id = submit_ok(c, {job_json(quick)})[0];
  const json::Value resp = parse_json(c.request_raw(result_request(id, true)));
  ASSERT_TRUE(resp.get_bool("ok", false));
  const std::uint64_t cycles =
      resp.find("result")->find("stats")->get_uint("cycles", 0);
  ASSERT_GT(cycles, 0u);

  // The key a peer would ask for is the job's content hash.
  const SweepJob job = serve::job_from_json(parse_json(job_json(quick)));
  const std::string key_hex = to_hex(sweep_cache_key(job));

  const json::Value hit =
      c.request("{\"op\":\"cache_get\",\"key\":\"" + key_hex + "\"}");
  ASSERT_TRUE(hit.get_bool("ok", false)) << json::serialize(hit);
  ASSERT_TRUE(hit.get_bool("found", false));
  CachedSweepRun run;
  const std::string blob = base64_decode(hit.get_string("payload", ""));
  ASSERT_TRUE(decode_cached_run(blob, run))
      << "b64 size=" << hit.get_string("payload", "").size()
      << " blob size=" << blob.size() << " v=" << int(blob[0])
      << " st=" << int(blob[1]);
  EXPECT_EQ(run.stats.cycles, cycles) << "peer payload must be bit-identical";

  // An unknown key is an honest miss, not an error...
  const json::Value miss = c.request(
      "{\"op\":\"cache_get\",\"key\":\"00000000000000000000000000000000\"}");
  EXPECT_TRUE(miss.get_bool("ok", false));
  EXPECT_FALSE(miss.get_bool("found", true));
  // ...and peer peeks must not have moved the server's own hit/miss
  // counters (peer traffic is not local demand). The cold submit's own
  // misses (admission fast path + runner) are all that may appear.
  const json::Value stats = parse_json(server.stats_json());
  EXPECT_EQ(stats.find("cache")->get_uint("hits", 99), 0u);
  EXPECT_LE(stats.find("cache")->get_uint("misses", 99), 2u);

  // cache_flush with no disk tier: succeeds, reports disk:false.
  const json::Value flush = c.request("{\"op\":\"cache_flush\"}");
  EXPECT_TRUE(flush.get_bool("ok", false)) << json::serialize(flush);
  EXPECT_FALSE(flush.get_bool("disk", true));

  // cache_stats mirrors stats_json's cache object, as its own op.
  const json::Value cs = c.request("{\"op\":\"cache_stats\"}");
  ASSERT_TRUE(cs.get_bool("ok", false));
  EXPECT_TRUE(cs.find("cache")->get_bool("enabled", false));
  EXPECT_GE(cs.find("cache")->get_uint("insertions", 0), 1u);
  server.stop();
}

TEST(ServeCache, CacheOpsDegradeCleanlyWithoutACache) {
  Server server(test_options());  // cache_bytes = 0
  server.start();
  Client c;
  c.connect("127.0.0.1", server.port());
  // cache_get: a server with no cache simply has no entries.
  const json::Value miss = c.request(
      "{\"op\":\"cache_get\",\"key\":\"ffffffffffffffffffffffffffffffff\"}");
  EXPECT_TRUE(miss.get_bool("ok", false));
  EXPECT_FALSE(miss.get_bool("found", true));
  // cache_flush: there is nothing to make durable — explicit error.
  EXPECT_EQ(c.request("{\"op\":\"cache_flush\"}").get_string("error", ""),
            "no_cache");
  const json::Value cs = c.request("{\"op\":\"cache_stats\"}");
  ASSERT_TRUE(cs.get_bool("ok", false));
  EXPECT_FALSE(cs.find("cache")->get_bool("enabled", true));
  server.stop();
}

TEST(ServeFuzz, CacheOpCorpusGetsErrorsNotDisconnects) {
  ServerOptions opts = test_options();
  opts.cache_bytes = 1u << 20;
  Server server(opts);
  server.start();
  RawConn conn(server.port());

  // Malformed cache requests parse as frames, so each earns an error
  // *response* — the session survives the whole corpus.
  const std::string corpus[] = {
      "{\"op\":\"cache_get\"}",                        // key missing
      "{\"op\":\"cache_get\",\"key\":\"\"}",           // empty
      "{\"op\":\"cache_get\",\"key\":\"abc\"}",        // too short
      "{\"op\":\"cache_get\",\"key\":\"zz" +
          std::string(30, '0') + "\"}",                // non-hex
      "{\"op\":\"cache_get\",\"key\":\"" +
          std::string(33, 'a') + "\"}",                // too long
      "{\"op\":\"cache_get\",\"key\":\"" +
          std::string(1 << 16, 'f') + "\"}",           // absurdly long
      "{\"op\":\"cache_get\",\"key\":12345}",          // wrong type
      "{\"op\":\"cache_get\",\"key\":[\"a\"]}",        // wrong type
  };
  for (const std::string& payload : corpus) {
    serve::write_frame(conn.fd(), payload);
    std::string raw;
    ASSERT_TRUE(serve::read_frame(conn.fd(), raw))
        << "server dropped the session on: " << payload.substr(0, 80);
    const json::Value resp = parse_json(raw);
    EXPECT_FALSE(resp.get_bool("ok", true)) << raw;
    EXPECT_EQ(resp.get_string("error", ""), "bad_request") << raw;
  }
  // Framing violations on a cache-op-shaped payload still just drop the
  // connection, like any other framing violation.
  {
    RawConn truncated(server.port());
    truncated.send_bytes(RawConn::header(512) + "{\"op\":\"cache_get\"");
  }  // closes mid-payload
  {
    RawConn oversized(server.port());
    oversized.send_bytes(RawConn::header(0xFFFFFFFFu) +
                         "{\"op\":\"cache_flush\"}");
    EXPECT_TRUE(oversized.closed_by_peer(5000));
  }

  // The original session and fresh sessions both still work.
  serve::write_frame(conn.fd(), "{\"op\":\"cache_stats\"}");
  std::string raw;
  ASSERT_TRUE(serve::read_frame(conn.fd(), raw));
  EXPECT_TRUE(parse_json(raw).get_bool("ok", false)) << raw;
  Client c;
  c.connect("127.0.0.1", server.port());
  EXPECT_TRUE(c.request("{\"op\":\"ping\"}").get_bool("ok", false));
  server.stop();
}

// --- masc-client ------------------------------------------------------

TEST(ServeClientCli, SubmitWaitPrintsTheServedRecordBytes) {
  ServerOptions opts;
  opts.port = 0;
  opts.workers = 1;
  Server server(opts);
  server.start();
  const std::string path = testing::TempDir() + "masc_cli_" +
                           std::to_string(::getpid()) + ".s";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(reduction_kernel(6).c_str(), f);
    std::fclose(f);
  }
  const std::string cmd = std::string(MASC_CLIENT_BIN) + " --port " +
                          std::to_string(server.port()) + " submit " + path +
                          " --pes 8 --threads 4 --seeds 2 --wait";
  std::FILE* p = ::popen(cmd.c_str(), "r");
  ASSERT_NE(p, nullptr);
  std::vector<std::string> lines;
  std::string line;
  for (int ch; (ch = std::fgetc(p)) != EOF;) {
    if (ch != '\n') {
      line += static_cast<char>(ch);
      continue;
    }
    lines.push_back(line);
    line.clear();
  }
  EXPECT_EQ(::pclose(p), 0);
  std::remove(path.c_str());

  // The submit response, then one result per job, each exactly the
  // bytes the server sends for that record.
  ASSERT_EQ(lines.size(), 3u);
  const json::Value sub = parse_json(lines[0]);
  ASSERT_TRUE(sub.get_bool("ok", false)) << lines[0];
  Client c;
  c.connect("127.0.0.1", server.port());
  const auto& ids = sub.find("ids")->as_array();
  ASSERT_EQ(ids.size(), 2u);
  for (std::size_t i = 0; i < ids.size(); ++i)
    EXPECT_EQ(lines[1 + i],
              c.request_raw("{\"op\":\"result\",\"id\":" +
                            std::to_string(ids[i].as_uint()) + "}"));
  server.stop();
}

}  // namespace
}  // namespace masc
