package ftl

import (
	"encoding/binary"
	"fmt"

	"cubeftl/internal/ssd"
)

// RecoveryHook is the controller's outbound interface to the
// crash-consistency subsystem (internal/recovery). The controller
// notifies it of every mapping delta so the journal can make the
// deltas durable, and defers two state transitions — erasing a block
// and returning it to the free pool — until the journal records that
// justify them are durable. Without a hook attached every Note is
// skipped and both barriers proceed immediately.
//
// Import direction: internal/recovery imports internal/ftl, never the
// reverse; this interface is the seam between them.
type RecoveryHook interface {
	// NoteBlockOpened records that a free block became an active write
	// point with the given block sequence number.
	NoteBlockOpened(chip, block int, seq uint64)

	// NoteMapped records an installed mapping lpn -> ppn carrying the
	// data version's write stamp (host flush and GC relocation alike).
	NoteMapped(lpn LPN, ppn ssd.PPN, stamp uint64)

	// NoteTrim records an explicit host invalidation.
	NoteTrim(lpn LPN)

	// NoteRetired records a block added to the grown bad-block list.
	NoteRetired(chip, block int)

	// NoteDieDegraded records a die transitioning to read-only.
	NoteDieDegraded(die int)

	// BarrierErase defers a victim-block erase until every journal
	// record moving data out of the block is durable; proceed issues
	// the erase. Without this barrier a power cut after the erase but
	// before the relocation records persist would leave the recovered
	// mapping pointing into erased cells.
	BarrierErase(chip, block int, proceed func())

	// NoteErased records a completed erase and defers the block's
	// return to the free pool until the erase record itself is
	// durable; proceed re-pools the block. Without this barrier the
	// block could be reopened and reprogrammed while the journal still
	// calls it a victim, resurrecting pre-erase mappings on recovery.
	NoteErased(chip, block int, proceed func())
}

// PolicyStateSaver is implemented by policies whose learned state is
// worth checkpointing — for cubeFTL the OPM loop-interval tables and
// the per-h-layer ORT offsets, exactly the state the paper argues
// cannot be rebuilt offline. Policies without it restart cold after a
// power cycle and relearn online.
type PolicyStateSaver interface {
	// AppendState appends the learned state's serialization to dst and
	// returns the extended slice. Deterministic: same state, same bytes.
	AppendState(dst []byte) []byte
	// RestoreState rebuilds the learned state from AppendState output.
	RestoreState(data []byte) error
}

// StateReader is the little-endian cursor the durable-image decoders
// share (a policy's RestoreState, the recovery checkpoint): it latches
// the first truncation in Err instead of panicking on short input, and
// every read after that returns zero. What names the image in the
// error ("core: policy state", "recovery: checkpoint").
type StateReader struct {
	B    []byte // the unread rest of the image
	Err  error
	What string
}

// Take returns the next n bytes, or nil once the image has run short.
func (r *StateReader) Take(n int) []byte {
	if r.Err != nil {
		return nil
	}
	if len(r.B) < n {
		r.Err = fmt.Errorf("%s truncated (need %d bytes, have %d)", r.What, n, len(r.B))
		return nil
	}
	out := r.B[:n]
	r.B = r.B[n:]
	return out
}

// Bytes fills dst from the image.
func (r *StateReader) Bytes(dst []byte) {
	if src := r.Take(len(dst)); src != nil {
		copy(dst, src)
	}
}

// U8, U16, U32 and U64 read one little-endian integer (zero once Err
// is set).
func (r *StateReader) U8() byte {
	if s := r.Take(1); s != nil {
		return s[0]
	}
	return 0
}

func (r *StateReader) U16() uint16 {
	if s := r.Take(2); s != nil {
		return binary.LittleEndian.Uint16(s)
	}
	return 0
}

func (r *StateReader) U32() uint32 {
	if s := r.Take(4); s != nil {
		return binary.LittleEndian.Uint32(s)
	}
	return 0
}

func (r *StateReader) U64() uint64 {
	if s := r.Take(8); s != nil {
		return binary.LittleEndian.Uint64(s)
	}
	return 0
}
