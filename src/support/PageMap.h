//===----------------------------------------------------------------------===//
///
/// \file
/// A sparse map from byte addresses to fixed-size pages, allocated on
/// first touch behind a one-entry cache of the last page. The memdep
/// profiler's shadow memory and the speculative journal both keep their
/// per-byte state in one; the journal recycles its pages between
/// dispatches instead of freeing them.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_PAGEMAP_H
#define SUPPORT_PAGEMAP_H

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

namespace nir {

/// Pages of type \p PageT, one per 2^\p Bits bytes of address space.
/// The first lookup of an address on a page takes a page from the free
/// list that recycle() fills, or else allocates a value-initialized
/// (zeroed) one. Accesses cluster, so the last page used is cached in
/// front of the hash map.
template <typename PageT, unsigned Bits> class PageMap {
public:
  static constexpr uint64_t PageSize = uint64_t(1) << Bits;

  /// The page holding \p Addr.
  PageT &page(uint64_t Addr) {
    const uint64_t PageNo = Addr >> Bits;
    if (PageNo != LastPageNo) {
      std::unique_ptr<PageT> &P = Pages[PageNo];
      if (!P) {
        if (Free.empty()) {
          P = std::make_unique<PageT>();
        } else {
          P = std::move(Free.back());
          Free.pop_back();
        }
      }
      LastPageNo = PageNo;
      LastPage = P.get();
    }
    return *LastPage;
  }

  /// Empties the map but keeps its pages: each goes through \p Reset and
  /// onto the free list, so a recycled page holds whatever \p Reset left
  /// in it. The pages kept are those the map held at its fullest.
  template <typename ResetFn> void recycle(ResetFn Reset) {
    for (auto &[PageNo, P] : Pages) {
      Reset(*P);
      Free.push_back(std::move(P));
    }
    Pages.clear();
    LastPageNo = ~uint64_t(0);
    LastPage = nullptr;
  }

  /// \p Addr's byte offset within its page.
  static uint64_t offset(uint64_t Addr) { return Addr & (PageSize - 1); }
  /// The first address of page number \p PageNo.
  static uint64_t base(uint64_t PageNo) { return PageNo << Bits; }

  /// (page number, page) pairs of every page touched, in no order.
  auto begin() const { return Pages.begin(); }
  auto end() const { return Pages.end(); }

private:
  std::unordered_map<uint64_t, std::unique_ptr<PageT>> Pages;
  std::vector<std::unique_ptr<PageT>> Free;
  uint64_t LastPageNo = ~uint64_t(0);
  PageT *LastPage = nullptr;
};

} // namespace nir

#endif // SUPPORT_PAGEMAP_H
