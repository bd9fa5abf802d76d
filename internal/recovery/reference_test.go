package recovery

import (
	"encoding/binary"
	"hash/crc32"

	"cubeftl/internal/ftl"
)

// encodeCheckpoint is the reference checkpoint encoder: it serialises a
// materialised ftl.MountState plus the policy's state bytes into a fresh
// buffer. The manager no longer uses it — a checkpoint is streamed from
// the live controller into its slot's buffer (ckptEncoder) — and it
// survives as the oracle that pins the streamed image byte for byte.
func encodeCheckpoint(ms ftl.MountState, policy []byte) []byte {
	var b []byte
	b = append(b, ckptMagic[:]...)
	b = binary.LittleEndian.AppendUint64(b, ms.LastStamp)
	b = binary.LittleEndian.AppendUint64(b, ms.LastBlockSeq)
	nChips := len(ms.Free)
	b = binary.LittleEndian.AppendUint32(b, uint32(nChips))
	nMap := 0
	for _, stamp := range ms.Stamps {
		if stamp != 0 {
			nMap++
		}
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(nMap))
	for lpn, stamp := range ms.Stamps {
		if stamp != 0 {
			b = binary.LittleEndian.AppendUint64(b, uint64(lpn))
			b = binary.LittleEndian.AppendUint64(b, uint64(int64(ms.L2P[lpn])))
			b = binary.LittleEndian.AppendUint64(b, stamp)
		}
	}
	for chip := 0; chip < nChips; chip++ {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(ms.Free[chip])))
		for _, blk := range ms.Free[chip] {
			b = binary.LittleEndian.AppendUint32(b, uint32(blk))
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(len(ms.Actives[chip])))
		for _, ar := range ms.Actives[chip] {
			b = binary.LittleEndian.AppendUint32(b, uint32(ar.Block))
			b = binary.LittleEndian.AppendUint64(b, ar.Seq)
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(len(ms.Retired[chip])))
		for _, blk := range ms.Retired[chip] {
			b = binary.LittleEndian.AppendUint32(b, uint32(blk))
		}
		if ms.DegradedDies[chip] {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(policy)))
	b = append(b, policy...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// referenceImage is the checkpoint image the reference encoder produces
// for ctrl's current state.
func referenceImage(ctrl *ftl.Controller) []byte {
	var pol []byte
	if ps, ok := ctrl.Policy().(ftl.PolicyStateSaver); ok {
		pol = ps.AppendState(nil)
	}
	return encodeCheckpoint(snapshot(ctrl), pol)
}

// snapshot is ctrl's durable state as one MountState, the reference
// encoder's input, read through the accessors the streaming encoder
// walks.
func snapshot(ctrl *ftl.Controller) ftl.MountState {
	ms := ftl.NewMountState(ctrl.Device().Geometry())
	ms.LastStamp, ms.LastBlockSeq = ctrl.StampCounters()
	for lpn := range ms.L2P {
		ms.L2P[lpn], ms.Stamps[lpn] = ctrl.Mapper().Lookup(ftl.LPN(lpn)), ctrl.StampOf(ftl.LPN(lpn))
	}
	for chip := range ms.Free {
		ms.Free[chip] = append([]int(nil), ctrl.FreeBlocks(chip)...)
		ms.Actives[chip] = ctrl.AppendActives(nil, chip)
		ms.Retired[chip] = ctrl.AppendRetired(nil, chip)
		ms.DegradedDies[chip] = ctrl.DieDegraded(chip)
	}
	return ms
}
