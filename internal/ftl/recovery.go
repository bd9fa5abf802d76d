package ftl

import "cubeftl/internal/ssd"

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
