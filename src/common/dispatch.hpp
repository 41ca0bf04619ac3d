// Lifting a runtime enumerator to a compile-time constant.
//
// The datapath decodes an operator (ALU funct, comparison, reduction op)
// once per instruction and then runs a row loop over every PE of every
// lane. dispatch<Last>(e, k) calls k(std::integral_constant<E, e>{}), so
// the loop body is instantiated per operator and the per-element work is
// the operator alone: no switch and no out-of-line call inside the loop.
#pragma once

#include <cstddef>
#include <type_traits>
#include <utility>

namespace masc {

namespace detail {

template <typename E, E V, typename K>
decltype(auto) call_with(K& k) {
  return k(std::integral_constant<E, V>{});
}

template <auto Last, typename K, std::size_t... I>
decltype(auto) dispatch(decltype(Last) e, K& k, std::index_sequence<I...>) {
  using E = decltype(Last);
  constexpr auto kLast = static_cast<std::size_t>(Last);
  constexpr decltype(&call_with<E, Last, K>) kTable[] = {
      &call_with<E, static_cast<E>(I), K>...};
  const auto v = static_cast<std::size_t>(e);
  return kTable[v < kLast ? v : kLast](k);
}

}  // namespace detail

/// k(std::integral_constant<E, e>{}) for an enum E whose enumerators run
/// 0..Last. Values past Last call k with Last (an enum's kCount sentinel,
/// which the op templates give their out-of-range meaning). k must return
/// the same type for every enumerator.
template <auto Last, typename K>
decltype(auto) dispatch(decltype(Last) e, K&& k) {
  return detail::dispatch<Last>(
      e, k, std::make_index_sequence<static_cast<std::size_t>(Last) + 1>{});
}

}  // namespace masc
