package recovery

import (
	"fmt"
	"sort"

	"cubeftl/internal/ftl"
	"cubeftl/internal/nand"
	"cubeftl/internal/ssd"
)

// Ledger is the durability oracle: it records, in commit order, every
// write whose journal record became durable (which under DurableAcks
// is exactly the set of host-acknowledged writes) and every durable
// trim. It lives outside the device — the test harness owns it — so it
// survives the power cut and tells the verifier what the recovered
// device MUST still hold.
type Ledger struct {
	entries map[ftl.LPN]ledgerEntry
}

type ledgerEntry struct {
	stamp   uint64
	trimmed bool
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{entries: make(map[ftl.LPN]ledgerEntry)} }

// Record notes a durable write of lpn at the given stamp.
func (l *Ledger) Record(lpn ftl.LPN, stamp uint64) {
	l.entries[lpn] = ledgerEntry{stamp: stamp}
}

// RecordTrim notes a durable trim: the device owes nothing for lpn
// until a later write. (A crash may still resurrect pre-trim data —
// permitted, as with real non-deterministic trim.)
func (l *Ledger) RecordTrim(lpn ftl.LPN) {
	l.entries[lpn] = ledgerEntry{trimmed: true}
}

// Len returns the number of tracked logical pages.
func (l *Ledger) Len() int { return len(l.entries) }

// Writes returns the count of non-trimmed entries.
func (l *Ledger) Writes() int {
	n := 0
	for _, e := range l.entries {
		if !e.trimmed {
			n++
		}
	}
	return n
}

// Verify is the full-device consistency check run after a recovery
// mount (the controller must be drained). It layers four audits:
//
//  1. the controller's own CheckConsistency (map agreement, page
//     accounting, pool/retired/cursor invariants);
//  2. L2P <-> OOB agreement: every mapped page's spare area must
//     decode and name the same LPN and stamp the controller holds;
//  3. payload integrity (when the media stores data): every mapped
//     page's stored tag matches its LPN and stamp;
//  4. the ledger: every durably-acknowledged write is still mapped at
//     the recorded stamp or newer — zero lost acked writes.
func Verify(ctrl *ftl.Controller, led *Ledger) error {
	if err := ctrl.CheckConsistency(); err != nil {
		return err
	}
	geo := ctrl.Device().Geometry()
	mapper := ctrl.Mapper()
	for lpn := ftl.LPN(0); lpn < ftl.LPN(mapper.LogicalPages()); lpn++ {
		ppn := mapper.Lookup(lpn)
		if ppn == ssd.UnmappedPPN {
			continue
		}
		chip, block, layer, wl, page := geo.DecodePPN(ppn)
		a := nand.Address{Block: block, Layer: layer, WL: wl, Page: page}
		chipNAND := ctrl.Device().Die(chip).NAND
		oobLPN, oobStamp, _, ok := ftl.DecodeOOB(chipNAND.OOB(a))
		if !ok {
			return fmt.Errorf("recovery: LPN %d maps to chip %d %v with no valid OOB", lpn, chip, a)
		}
		if oobLPN != lpn {
			return fmt.Errorf("recovery: L2P/OOB disagree at chip %d %v: mapped LPN %d, OOB says %d",
				chip, a, lpn, oobLPN)
		}
		if stamp := ctrl.StampOf(lpn); oobStamp != stamp {
			return fmt.Errorf("recovery: LPN %d stamp mismatch: controller %d, OOB %d", lpn, stamp, oobStamp)
		}
		if data := chipNAND.PageData(a); data != nil {
			tagLPN, tagStamp, tagOK := ftl.ParsePageTag(data)
			if !tagOK || tagLPN != lpn || tagStamp != ctrl.StampOf(lpn) {
				return fmt.Errorf("recovery: LPN %d payload tag mismatch at chip %d %v", lpn, chip, a)
			}
		}
	}
	if led != nil {
		lpns := make([]int64, 0, len(led.entries))
		for lpn := range led.entries {
			lpns = append(lpns, int64(lpn))
		}
		sort.Slice(lpns, func(i, j int) bool { return lpns[i] < lpns[j] })
		for _, l := range lpns {
			lpn := ftl.LPN(l)
			e := led.entries[lpn]
			if e.trimmed {
				continue
			}
			if mapper.Lookup(lpn) == ssd.UnmappedPPN {
				return fmt.Errorf("recovery: acked write lost: LPN %d (stamp %d) is unmapped", lpn, e.stamp)
			}
			if got := ctrl.StampOf(lpn); got < e.stamp {
				return fmt.Errorf("recovery: acked write lost: LPN %d recovered at stamp %d, acked stamp %d",
					lpn, got, e.stamp)
			}
		}
	}
	return nil
}
