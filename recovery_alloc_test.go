package cubeftl

import "testing"

// Allocation gates for the recovery path (DESIGN.md §12): a checkpoint
// is streamed into the buffer of the slot it overwrites, and a durable
// page write travels as journal bytes encoded in place, a typed waiter
// in a ring and the pooled host-write record — so neither allocates in
// the steady state; and a full-scan mount reads the spare area in
// place. The Benchmark* twins report the same figures with
// -benchmem.

// servedDevice is the device `bench/`'s served-loopback workload (and so
// every number quoted for the served path) runs on: 4x2 dies of 64
// blocks, recovery on, 100 000 pages prefilled.
func servedDevice(tb testing.TB) *SSD {
	tb.Helper()
	s, err := New(Options{FTL: FTLCube, Channels: 4, DiesPerChannel: 2, BlocksPerChip: 64, Seed: 1, Recovery: true})
	if err != nil {
		tb.Fatal(err)
	}
	if n := s.Prefill(100_000); n != 100_000 {
		tb.Fatalf("prefilled %d pages", n)
	}
	// Both slots' buffers reach the image size, the staging buffers their
	// batch size.
	for i := 0; i < 3; i++ {
		s.Quiesce()
	}
	return s
}

// durableWrites issues n one-page writes over the prefilled range and
// runs until every one is acknowledged: programmed under its OOB record,
// its held ack released.
func durableWrites(s *SSD, lpn *int64, n int) {
	for i := 0; i < n; i++ {
		*lpn = (*lpn*31 + 17) % 100_000
		if err := s.Write(*lpn, nil); err != nil {
			panic(err)
		}
	}
	s.Run()
}

func TestCheckpointAllocs(t *testing.T) {
	s := servedDevice(t)
	before := s.st.Mgr.System().CheckpointBytes()
	if before < 100_000*24 {
		t.Fatalf("checkpoint image is %d bytes: the device does not hold 100 000 mappings", before)
	}
	// Quiesce writes one checkpoint (2.4 MB of image for the 100 000
	// mappings) and runs the device until it is durable.
	if n := testing.AllocsPerRun(5, s.Quiesce); n != 0 {
		t.Errorf("steady-state checkpoint + Quiesce: %.1f allocations, want 0", n)
	}
}

func TestDurableWriteAllocs(t *testing.T) {
	s := servedDevice(t)
	var lpn int64
	const batch = 48
	durableWrites(s, &lpn, 4*batch) // op records, rings and staging buffers at size
	acked := s.AckedWrites()
	n := testing.AllocsPerRun(20, func() { durableWrites(s, &lpn, batch) })
	if per := n / batch; per > 1 {
		t.Errorf("durable page write: %.2f allocations per page, want at most 1", per)
	}
	if s.AckedWrites() < acked {
		t.Error("acked-write ledger shrank")
	}
	if s.ctrl.PendingAckCount() != 0 {
		t.Errorf("%d acks still held after Run", s.ctrl.PendingAckCount())
	}
}

// fullScanDevice is a 2x2x64 recoverable device prefilled with n pages.
func fullScanDevice(tb testing.TB, n int64) *SSD {
	tb.Helper()
	s, err := New(Options{FTL: FTLCube, Channels: 2, DiesPerChannel: 2, BlocksPerChip: 64, Seed: 1, Recovery: true})
	if err != nil {
		tb.Fatal(err)
	}
	if got := s.Prefill(n); got != n {
		tb.Fatalf("prefilled %d pages", got)
	}
	return s
}

// mountFromMedia cuts the power and mounts the cut from the OOB records
// alone, as a device without a valid checkpoint does.
func mountFromMedia(tb testing.TB, s *SSD) {
	tb.Helper()
	if _, _, err := s.st.Mount(s.st.Mgr.Cut(), false, true); err != nil {
		tb.Fatal(err)
	}
}

// A full-scan mount decodes every programmed page's spare-area record
// from a view of its block's arena: it allocates per block and per
// mount, not per page (one copy per page before). Measured as the
// difference between devices of 20 000 and 40 000 programmed pages, the
// power cut's copy of the array included.
func TestFullScanMountAllocs(t *testing.T) {
	const base = 20_000
	allocs := func(n int64) float64 {
		s := fullScanDevice(t, n)
		return testing.AllocsPerRun(3, func() { mountFromMedia(t, s) })
	}
	small, large := allocs(base), allocs(2*base)
	if per := (large - small) / base; per > 0.05 {
		t.Errorf("full-scan mount: %.3f allocations per programmed page (%.0f at %d pages, %.0f at %d), want at most 0.05",
			per, small, base, large, 2*base)
	}
}

func BenchmarkFullScanMount(b *testing.B) {
	s := fullScanDevice(b, 40_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mountFromMedia(b, s)
	}
}

func BenchmarkCheckpointQuiesce(b *testing.B) {
	s := servedDevice(b)
	b.ReportAllocs()
	b.SetBytes(int64(s.st.Mgr.System().CheckpointBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Quiesce()
	}
}

func BenchmarkDurablePageWrite(b *testing.B) {
	s := servedDevice(b)
	var lpn int64
	durableWrites(s, &lpn, 192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 48 {
		durableWrites(s, &lpn, 48)
	}
}
