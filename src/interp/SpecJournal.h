//===----------------------------------------------------------------------===//
///
/// \file
/// The write log of one speculative DOALL task. The interpreter's
/// SpecLd/SpecSt opcodes (the decoded noelle_spec_* accessors) reach the
/// journal the parallel runtime installs for the running task through
/// ExecutionEngine::setThreadJournal. Stores are deferred into the
/// journal's pages, byte-granular and read-your-own-writes, and every
/// byte touched is marked for the conflict check at the join; the
/// runtime then validates the journals of a dispatch against each
/// other, commits or discards them, and recycles their pages for the
/// next dispatch.
///
//===----------------------------------------------------------------------===//

#ifndef INTERP_SPECJOURNAL_H
#define INTERP_SPECJOURNAL_H

#include "support/PageMap.h"

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace nir {

/// One 4 KiB page of a journal: the bytes the task stored there and byte
/// bitmaps of what it wrote and read. Bit B of word K stands for byte
/// K * 64 + B of the page.
struct JournalPage {
  static constexpr unsigned Bits = 12;
  static constexpr unsigned Words = (1u << Bits) / 64;
  uint64_t Written[Words] = {};
  uint64_t Read[Words] = {};
  uint8_t Data[1u << Bits];
};

/// One speculative task's journal: its pages, their free list and the
/// last-page cache. Aligned to a cache line so neighbouring tasks'
/// journals do not share one.
class alignas(64) SpecJournal {
  using Pages = PageMap<JournalPage, JournalPage::Bits>;

public:
  /// Reads the \p N bytes at \p Addr into \p Out: bytes this task wrote
  /// come from the journal, the rest from memory, and all are marked
  /// read. An access inside one bitmap word marks with one OR and copies
  /// at most twice; one that crosses a word goes byte by byte.
  template <unsigned N> void load(uint64_t Addr, void *Out) {
    const uint64_t Off = Pages::offset(Addr);
    const unsigned Bit = Off % 64;
    if (Bit + N > 64) {
      loadBytes(Addr, N, static_cast<uint8_t *>(Out));
      return;
    }
    JournalPage &P = Map.page(Addr);
    const uint64_t Mask = ((uint64_t(1) << N) - 1) << Bit;
    P.Read[Off / 64] |= Mask;
    const uint64_t Own = P.Written[Off / 64] & Mask;
    if (Own == Mask) {
      std::memcpy(Out, P.Data + Off, N);
      return;
    }
    std::memcpy(Out, reinterpret_cast<const void *>(Addr), N);
    if (Own)
      for (unsigned I = 0; I < N; ++I)
        if (Own & (uint64_t(1) << (Bit + I)))
          static_cast<uint8_t *>(Out)[I] = P.Data[Off + I];
  }

  /// Defers a store of the \p N bytes at \p Src to \p Addr.
  template <unsigned N> void store(uint64_t Addr, const void *Src) {
    const uint64_t Off = Pages::offset(Addr);
    const unsigned Bit = Off % 64;
    if (Bit + N > 64) {
      storeBytes(Addr, N, static_cast<const uint8_t *>(Src));
      return;
    }
    JournalPage &P = Map.page(Addr);
    P.Written[Off / 64] |= ((uint64_t(1) << N) - 1) << Bit;
    std::memcpy(P.Data + Off, Src, N);
  }

  /// Copies the written bytes to memory: a whole 64-byte run where a
  /// mask word is full, one copy per run of set bits otherwise.
  void commit() const;

  /// Returns every page to the free list with both bitmaps cleared, so
  /// the next dispatch starts from an empty journal without allocating.
  void recycle();

private:
  friend bool journalsConflict(const SpecJournal *Journals, size_t N);

  void loadBytes(uint64_t Addr, unsigned N, uint8_t *Out);
  void storeBytes(uint64_t Addr, unsigned N, const uint8_t *Src);

  Pages Map;
};

/// True when some journal's written bytes overlap another's read or
/// written bytes, among the first \p N of \p Journals.
bool journalsConflict(const SpecJournal *Journals, size_t N);

} // namespace nir

#endif // INTERP_SPECJOURNAL_H
