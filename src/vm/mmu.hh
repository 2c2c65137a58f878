/**
 * @file
 * The memory management unit.
 *
 * Performs the virtual-to-physical translation and permission check on
 * every CPU memory reference — including references to proxy pages,
 * which is precisely how UDMA gets protection "for free" (paper
 * Section 4). Hardware-managed referenced/dirty bits are updated here.
 */

#ifndef SHRIMP_VM_MMU_HH
#define SHRIMP_VM_MMU_HH

#include <cstdint>

#include "vm/layout.hh"
#include "vm/page_table.hh"
#include "vm/tlb.hh"

namespace shrimp::vm
{

/** Why a translation failed. */
enum class Fault
{
    None,
    NotPresent, ///< no valid mapping for the page
    Protection, ///< write to a non-writable page (or user/kernel)
};

/** Result of a translation attempt. */
struct TranslateResult
{
    Fault fault = Fault::None;
    Addr paddr = 0;
    bool tlbHit = false;

    bool ok() const { return fault == Fault::None; }
};

/** Per-CPU MMU: TLB + walker over the active page table. */
class Mmu
{
  public:
    explicit Mmu(const AddressLayout &layout, std::size_t tlb_entries = 64)
        : layout_(layout), tlb_(tlb_entries)
    {}

    /** Switch address spaces (flushes the TLB, as on 90s x86). */
    void
    activate(PageTable *pt)
    {
        current_ = pt;
        tlb_.flushAll();
    }

    PageTable *activeTable() const { return current_; }

    /**
     * Translate a virtual address for a user access.
     *
     * Updates referenced/dirty bits on success; never mutates state on
     * a fault, so the access can be transparently retried after the
     * kernel repairs the mapping.
     */
    TranslateResult
    translate(Addr vaddr, bool is_write)
    {
        TranslateResult res;
        if (!current_) {
            res.fault = Fault::NotPresent;
            return res;
        }
        std::uint64_t vpn = layout_.pageOf(vaddr);
        Pte *pte = tlb_.lookup(vpn);
        res.tlbHit = pte != nullptr;
        if (!pte) {
            pte = current_->lookup(vpn);
            if (pte && pte->valid)
                tlb_.insert(vpn, pte);
        }
        if (!pte || !pte->valid) {
            res.fault = Fault::NotPresent;
            return res;
        }
        if (is_write && !pte->writable) {
            res.fault = Fault::Protection;
            return res;
        }
        pte->referenced = true;
        if (is_write)
            pte->dirty = true;
        res.paddr = pte->frameAddr + layout_.pageOffset(vaddr);
        return res;
    }

    /** Kernel-initiated single-page shootdown. */
    void invalidatePage(std::uint64_t vpn) { tlb_.invalidatePage(vpn); }

    /** Kernel-initiated full flush. */
    void flushTlb() { tlb_.flushAll(); }

    const AddressLayout &layout() const { return layout_; }
    const Tlb &tlb() const { return tlb_; }
    Tlb &tlb() { return tlb_; }

  private:
    const AddressLayout &layout_;
    Tlb tlb_;
    PageTable *current_ = nullptr;
};

} // namespace shrimp::vm

#endif // SHRIMP_VM_MMU_HH
