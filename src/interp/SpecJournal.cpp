#include "interp/SpecJournal.h"

#include <unordered_map>

using namespace nir;

void SpecJournal::loadBytes(uint64_t Addr, unsigned N, uint8_t *Out) {
  std::memcpy(Out, reinterpret_cast<const void *>(Addr), N);
  for (unsigned I = 0; I < N; ++I) {
    JournalPage &P = Map.page(Addr + I);
    const uint64_t Off = Pages::offset(Addr + I);
    const uint64_t Bit = uint64_t(1) << (Off % 64);
    P.Read[Off / 64] |= Bit;
    if (P.Written[Off / 64] & Bit)
      Out[I] = P.Data[Off];
  }
}

void SpecJournal::storeBytes(uint64_t Addr, unsigned N, const uint8_t *Src) {
  for (unsigned I = 0; I < N; ++I) {
    JournalPage &P = Map.page(Addr + I);
    const uint64_t Off = Pages::offset(Addr + I);
    P.Written[Off / 64] |= uint64_t(1) << (Off % 64);
    P.Data[Off] = Src[I];
  }
}

void SpecJournal::commit() const {
  for (const auto &[PageNo, P] : Map) {
    auto *Base = reinterpret_cast<uint8_t *>(Pages::base(PageNo));
    for (unsigned K = 0; K < JournalPage::Words; ++K) {
      uint64_t M = P->Written[K];
      if (M == ~uint64_t(0)) {
        std::memcpy(Base + K * 64, P->Data + K * 64, 64);
        continue;
      }
      // One copy per run of set bits; M is not full, so the complement
      // of the shifted word always has a set bit to count up to.
      while (M) {
        const unsigned B = K * 64 + static_cast<unsigned>(__builtin_ctzll(M));
        const unsigned Len =
            static_cast<unsigned>(__builtin_ctzll(~(M >> (B % 64))));
        std::memcpy(Base + B, P->Data + B, Len);
        M &= M + (M & -M); // clear the lowest run
      }
    }
  }
}

void SpecJournal::recycle() {
  Map.recycle([](JournalPage &P) {
    std::memset(P.Written, 0, sizeof(P.Written));
    std::memset(P.Read, 0, sizeof(P.Read));
  });
}

bool nir::journalsConflict(const SpecJournal *Journals, size_t N) {
  // Each journal's pages are checked against the union of the bitmaps
  // the earlier journals left on the same page, so one pass over all
  // pages covers every pair.
  struct Seen {
    uint64_t Written[JournalPage::Words] = {};
    uint64_t Read[JournalPage::Words] = {};
  };
  std::unordered_map<uint64_t, Seen> Union;
  for (size_t T = 0; T < N; ++T)
    for (const auto &[PageNo, P] : Journals[T].Map) {
      Seen &U = Union[PageNo];
      for (unsigned K = 0; K < JournalPage::Words; ++K) {
        if ((P->Written[K] & (U.Written[K] | U.Read[K])) |
            (P->Read[K] & U.Written[K]))
          return true;
        U.Written[K] |= P->Written[K];
        U.Read[K] |= P->Read[K];
      }
    }
  return false;
}
