package cubeftl

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"
)

func smallOptions(f string) Options {
	return Options{FTL: f, BlocksPerChip: 16, Seed: 5}
}

func TestNewDefaults(t *testing.T) {
	dev, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dev.FTLName() != "cubeFTL" {
		t.Errorf("default FTL = %s", dev.FTLName())
	}
	if dev.LogicalPages() == 0 || dev.CapacityBytes() == 0 {
		t.Error("empty device")
	}
}

func TestNewRejectsUnknownFTL(t *testing.T) {
	if _, err := New(Options{FTL: "magic"}); err == nil {
		t.Fatal("unknown FTL accepted")
	}
}

func TestAllFlavorsConstruct(t *testing.T) {
	for _, f := range []string{FTLPage, FTLVert, FTLCube, FTLCubeMinus} {
		dev, err := New(smallOptions(f))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if dev.FTLName() == "" {
			t.Errorf("%s: empty name", f)
		}
	}
}

func TestWriteReadRun(t *testing.T) {
	dev, err := New(smallOptions(FTLCube))
	if err != nil {
		t.Fatal(err)
	}
	acks := 0
	for lpn := int64(0); lpn < 50; lpn++ {
		if err := dev.Write(lpn, func() { acks++ }); err != nil {
			t.Fatal(err)
		}
	}
	dev.Run()
	if acks != 50 {
		t.Fatalf("acks = %d", acks)
	}
	if dev.Now() <= 0 {
		t.Error("simulated time did not advance")
	}
	reads := 0
	if err := dev.Read(25, func() { reads++ }); err != nil {
		t.Fatal(err)
	}
	dev.Run()
	if reads != 1 {
		t.Error("read never completed")
	}
}

func TestLPNValidation(t *testing.T) {
	dev, _ := New(smallOptions(FTLPage))
	if err := dev.Write(-1, nil); err == nil {
		t.Error("negative LPN accepted")
	}
	if err := dev.Read(int64(dev.LogicalPages()), nil); err == nil {
		t.Error("out-of-range LPN accepted")
	}
}

func TestRunWorkloadAndCubeStats(t *testing.T) {
	dev, err := New(smallOptions(FTLCube))
	if err != nil {
		t.Fatal(err)
	}
	dev.Prefill(int64(dev.LogicalPages()) / 2)
	dev.ResetStats()
	st, err := dev.RunWorkload("Mail", 800, 8)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 800 || st.IOPS <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MeanTPROG <= 0 {
		t.Error("no program latency recorded")
	}
	cs := dev.Cube()
	if cs.FollowerPrograms == 0 {
		t.Error("cubeFTL never used followers")
	}
	if cs.ORTBytes == 0 {
		t.Error("ORT accounting empty")
	}
	if _, err := dev.RunWorkload("nope", 10, 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestCubeStatsZeroForBaselines(t *testing.T) {
	dev, _ := New(smallOptions(FTLPage))
	if cs := dev.Cube(); cs != (CubeStats{}) {
		t.Errorf("pageFTL cube stats = %+v", cs)
	}
}

func TestWorkloadsList(t *testing.T) {
	ws := Workloads()
	if len(ws) != 10 {
		t.Fatalf("workloads = %v", ws)
	}
	want := map[string]bool{"Mail": true, "Web": true, "Proxy": true, "OLTP": true,
		"Rocks": true, "Mongo": true, "YCSB-B": true, "YCSB-C": true, "Bulk": true,
		"Mixed": true}
	for _, w := range ws {
		if !want[w] {
			t.Errorf("unexpected workload %q", w)
		}
	}
}

func TestFigureRegistry(t *testing.T) {
	ids := FigureIDs()
	if len(ids) < 11 {
		t.Fatalf("figure ids = %v", ids)
	}
	if err := ReproduceFigure("bogus", 1, &bytes.Buffer{}); err == nil {
		t.Error("bogus figure accepted")
	}
	// Run a cheap one end to end.
	var buf bytes.Buffer
	if err := ReproduceFigure("fig6", 1, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "deltaV") {
		t.Errorf("fig6 output missing deltaV note:\n%s", buf.String())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (float64, CubeStats) {
		dev, err := New(smallOptions(FTLCube))
		if err != nil {
			t.Fatal(err)
		}
		st, err := dev.RunWorkload("OLTP", 500, 8)
		if err != nil {
			t.Fatal(err)
		}
		return st.IOPS, dev.Cube()
	}
	i1, c1 := run()
	i2, c2 := run()
	if i1 != i2 || c1 != c2 {
		t.Errorf("same-seed runs diverged: %v vs %v, %+v vs %+v", i1, i2, c1, c2)
	}
}

func TestVerifyDataOption(t *testing.T) {
	opts := smallOptions(FTLCube)
	opts.VerifyData = true
	dev, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dev.RunWorkload("Mongo", 600, 8)
	if err != nil {
		t.Fatal(err)
	}
	if st.DataMismatches != 0 {
		t.Fatalf("data mismatches = %d", st.DataMismatches)
	}
}

func TestIspAndPlanesOptions(t *testing.T) {
	dev, err := New(smallOptions(FTLIsp))
	if err != nil {
		t.Fatal(err)
	}
	if dev.FTLName() != "ispFTL" {
		t.Errorf("name = %s", dev.FTLName())
	}
	st, err := dev.RunWorkload("OLTP", 500, 8)
	if err != nil {
		t.Fatal(err)
	}
	// ispFTL accelerates fresh programs well below the 704us default.
	if st.MeanTPROG >= 600*time.Microsecond {
		t.Errorf("ispFTL mean tPROG = %v, want clearly accelerated", st.MeanTPROG)
	}
}

func TestFaultInjectionOptions(t *testing.T) {
	opts := smallOptions(FTLCube)
	opts.BlocksPerChip = 32
	opts.VerifyData = true
	opts.ProgramFailRate = 2e-3
	opts.EraseFailRate = 1e-4
	opts.ReadFaultRate = 1e-3
	opts.FactoryBadRate = 0.02
	dev, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dev.RunWorkload("Mail", 8000, 16)
	if err != nil {
		t.Fatal(err)
	}
	if st.ProgramFailures == 0 {
		t.Error("program-failure rate never fired through the facade")
	}
	if st.RetiredBlocks == 0 {
		t.Error("no blocks retired")
	}
	if st.FaultRecoveries == 0 {
		t.Error("no recoveries counted")
	}
	if st.DataMismatches != 0 {
		t.Errorf("DataMismatches = %d under fault injection", st.DataMismatches)
	}
	if dev.Degraded() {
		t.Error("device degraded under moderate fault rates")
	}
}

func TestDegradedDeviceRejectsFacadeWrites(t *testing.T) {
	opts := smallOptions(FTLPage)
	opts.BlocksPerChip = 8
	opts.Channels = 1
	opts.DiesPerChannel = 2
	opts.VerifyData = true
	opts.EraseFailRate = 1
	dev, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(dev.LogicalPages() / 3)
	var rejected error
	for round := 0; round < 200 && rejected == nil; round++ {
		for lpn := int64(0); lpn < n; lpn++ {
			if err := dev.Write(lpn, nil); err != nil {
				rejected = err
				break
			}
		}
		dev.Run()
	}
	if rejected == nil {
		t.Fatal("device never degraded under total erase failure")
	}
	if !errors.Is(rejected, ErrDegraded) {
		t.Fatalf("rejection = %v, want ErrDegraded", rejected)
	}
	if !dev.Degraded() {
		t.Error("Degraded() = false")
	}
	// Reads still work on the degraded device.
	if err := dev.Read(0, nil); err != nil {
		t.Errorf("read on degraded device: %v", err)
	}
	dev.Run()
}

// GC must not take a victim without an invalid page: copying it frees
// nothing, and the cycle that follows finds the same state. A sequential
// prefill leaves every data block of this one-die device fully valid and
// its free pool at the GC threshold, and 64 first writes then ran GC
// cycles without end: Run never returned. They must complete and the
// device settle within a cycle budget (Run itself has none).
func TestGCRefusesAFullyValidVictim(t *testing.T) {
	dev, err := New(Options{FTL: FTLCube, Channels: 1, DiesPerChannel: 1, BlocksPerChip: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := dev.LogicalPages(); got != 8064 {
		t.Fatalf("%d logical pages, want the 8064 the case was found on", got)
	}
	const prefill, fresh = 6451, 64
	dev.Prefill(prefill)
	done := 0
	for lpn := int64(prefill); lpn < prefill+fresh; lpn++ {
		if err := dev.Write(lpn, func() { done++ }); err != nil {
			t.Fatalf("write %d: %v", lpn, err)
		}
	}
	const budget = 1000
	dev.eng.RunWhile(func() bool { return dev.ctrl.Stats().GCCount < budget })
	if n := dev.eng.Pending(); n > 0 {
		t.Fatalf("%d GC cycles and %d events still pending: the device never settles", dev.ctrl.Stats().GCCount, n)
	}
	dev.Run()
	if done != fresh {
		t.Fatalf("%d of %d writes completed", done, fresh)
	}
	if err := dev.ctrl.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
