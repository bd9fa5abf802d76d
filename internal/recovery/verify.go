package recovery

import (
	"fmt"

	"cubeftl/internal/ftl"
	"cubeftl/internal/nand"
	"cubeftl/internal/ssd"
)

// Ledger is the durability oracle: it keeps, per logical page, the
// newest of the writes whose page was programmed and mapped (which under
// DurableAcks covers every host-acknowledged write) and the trims whose
// record is durable. It lives outside the device — the test harness owns
// it — so it survives the power cut and tells the verifier what the
// recovered device MUST still hold.
//
// The table is dense, indexed by LPN and grown to the highest page
// recorded: an entry is the stamp shifted left by one, or'd with 1 for a
// trim, and 0 is no entry (stamps start at 1).
type Ledger struct {
	entries []uint64
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{} }

// Record notes a durable write of lpn at the given stamp.
func (l *Ledger) Record(lpn ftl.LPN, stamp uint64) { l.note(lpn, stamp<<1) }

// RecordTrim notes a durable trim of lpn, which took the given stamp:
// the device owes lpn unmapped, or mapped at a newer stamp.
func (l *Ledger) RecordTrim(lpn ftl.LPN, stamp uint64) { l.note(lpn, stamp<<1|1) }

// note keeps the newer fact: a trim turns durable a journal flush after
// it took its stamp, by when a newer write of the page may be recorded.
func (l *Ledger) note(lpn ftl.LPN, e uint64) {
	if n := int(lpn) + 1 - len(l.entries); n > 0 {
		l.entries = append(l.entries, make([]uint64, n)...)
	}
	if old := l.entries[lpn]; old>>1 <= e>>1 {
		l.entries[lpn] = e
	}
}

// ForgetTrims drops the trims: the media hold no trace of one, so a
// mount from the media alone owes none of them.
func (l *Ledger) ForgetTrims() {
	for lpn, e := range l.entries {
		if e&1 != 0 {
			l.entries[lpn] = 0
		}
	}
}

// Writes returns the count of non-trimmed entries.
func (l *Ledger) Writes() int {
	n := 0
	for _, e := range l.entries {
		if e != 0 && e&1 == 0 {
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
//     the recorded stamp or newer, or trimmed by a newer trim — zero lost
//     acked writes — and every durably trimmed page is unmapped or
//     mapped at a newer stamp.
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
		for i, e := range led.entries {
			if e == 0 {
				continue
			}
			lpn, stamp, trimmed := ftl.LPN(i), e>>1, e&1 != 0
			mapped, got := mapper.Lookup(lpn) != ssd.UnmappedPPN, ctrl.StampOf(lpn)
			// A trim the host issued after the write may have taken effect
			// before it was durable (a torn journal tail keeps whole
			// records): an unmapped page whose tombstone is newer is not lost.
			switch {
			case trimmed && mapped && got <= stamp:
				return fmt.Errorf("recovery: durable trim lost: LPN %d (trimmed at stamp %d) is mapped at stamp %d", lpn, stamp, got)
			case trimmed:
			case !mapped && got <= stamp:
				return fmt.Errorf("recovery: acked write lost: LPN %d (stamp %d) is unmapped", lpn, stamp)
			case got < stamp:
				return fmt.Errorf("recovery: acked write lost: LPN %d recovered at stamp %d, acked stamp %d",
					lpn, got, stamp)
			}
		}
	}
	return nil
}
