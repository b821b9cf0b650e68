//===----------------------------------------------------------------------===//
///
/// \file
/// A flat, insert-only map from pointers to small values: one open-
/// addressing table probed linearly, for lookups on a hot path whose
/// key set is known up front (the profilers' block and instruction
/// tables, filled once per module before the observed run).
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_POINTERMAP_H
#define SUPPORT_POINTERMAP_H

#include <cstdint>
#include <utility>
#include <vector>

namespace nir {

template <typename V> class PointerMap {
public:
  /// Maps \p K to \p Val; a key inserted twice keeps its first value.
  void insert(const void *K, V Val) {
    if (2 * (Count + 1) > Slots.size())
      grow();
    Slot &S = Slots[slotOf(K)];
    if (!S.first) {
      S = {K, Val};
      ++Count;
    }
  }

  /// The value of \p K, or null when \p K was never inserted.
  const V *find(const void *K) const {
    if (Slots.empty())
      return nullptr;
    const Slot &S = Slots[slotOf(K)];
    return S.first ? &S.second : nullptr;
  }

private:
  using Slot = std::pair<const void *, V>;

  /// The index of the slot holding \p K, or of the empty slot where it
  /// would go.
  size_t slotOf(const void *K) const {
    const size_t Mask = Slots.size() - 1;
    size_t I = size_t(
        (reinterpret_cast<uintptr_t>(K) * 0x9E3779B97F4A7C15ull) >> Shift);
    while (Slots[I].first && Slots[I].first != K)
      I = (I + 1) & Mask;
    return I;
  }

  void grow() {
    std::vector<Slot> Old = std::move(Slots);
    const size_t Size = Old.empty() ? 16 : 2 * Old.size();
    Slots.assign(Size, Slot{nullptr, V{}});
    Shift = 64;
    for (size_t S = Size; S > 1; S >>= 1)
      --Shift;
    Count = 0;
    for (const Slot &S : Old)
      if (S.first)
        insert(S.first, S.second);
  }

  std::vector<Slot> Slots;
  size_t Count = 0;
  unsigned Shift = 64; ///< 64 - log2(Slots.size())
};

} // namespace nir

#endif // SUPPORT_POINTERMAP_H
