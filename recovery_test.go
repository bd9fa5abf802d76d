package cubeftl

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func recoveryOptions() Options {
	return Options{
		FTL:            FTLCube,
		Channels:       2,
		DiesPerChannel: 2,
		BlocksPerChip:  16,
		Seed:           9,
		VerifyData:     true,
		Recovery:       true,
		CkptInterval:   2 * time.Millisecond,
	}
}

func TestRecoveryAPIsRequireOptIn(t *testing.T) {
	s, err := New(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.RecoveryEnabled() {
		t.Fatal("recovery enabled without opt-in")
	}
	if err := s.PowerCut(); !errors.Is(err, ErrRecoveryOff) {
		t.Errorf("PowerCut: got %v, want ErrRecoveryOff", err)
	}
	if _, err := s.Remount(true, false); !errors.Is(err, ErrRecoveryOff) {
		t.Errorf("Remount: got %v, want ErrRecoveryOff", err)
	}
	if err := s.CheckpointNow(); !errors.Is(err, ErrRecoveryOff) {
		t.Errorf("CheckpointNow: got %v, want ErrRecoveryOff", err)
	}
}

// The full facade cycle: prefill, run a workload to a mid-flight
// deadline, cut power, remount with verification, and keep writing.
func TestFacadePowerCutRemount(t *testing.T) {
	s, err := New(recoveryOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !s.RecoveryEnabled() {
		t.Fatal("recovery not enabled")
	}
	s.Prefill(int64(s.LogicalPages() / 2))
	if _, err := s.RunWorkloadUntil("Mixed", 4000, 32, s.Now()+8*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	acked := s.AckedWrites()
	if acked == 0 {
		t.Fatal("no durably acked writes before the cut")
	}
	if err := s.PowerCut(); err != nil {
		t.Fatal(err)
	}
	rpt, err := s.Remount(true, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rpt.Verified {
		t.Fatal("remount did not verify")
	}
	if !rpt.UsedCheckpoint {
		t.Error("mount ignored the checkpoint")
	}
	if rpt.MappingsRecovered == 0 || rpt.MountTime <= 0 {
		t.Errorf("implausible report: %+v", rpt)
	}
	// The remounted device accepts and completes fresh I/O.
	done := 0
	for lpn := int64(0); lpn < 16; lpn++ {
		if err := s.Write(lpn, func() { done++ }); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	if done != 16 {
		t.Fatalf("post-remount writes completed = %d, want 16", done)
	}
}

// Same seed, same cut instant: the recovered device must be
// byte-identically reproducible through the facade too.
func TestFacadeRecoveryDeterministic(t *testing.T) {
	mount := func() MountReport {
		s, err := New(recoveryOptions())
		if err != nil {
			t.Fatal(err)
		}
		s.Prefill(int64(s.LogicalPages() / 2))
		if _, err := s.RunWorkloadUntil("Mixed", 2000, 32, s.Now()+5*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := s.PowerCut(); err != nil {
			t.Fatal(err)
		}
		rpt, err := s.Remount(true, false)
		if err != nil {
			t.Fatal(err)
		}
		return rpt
	}
	a, b := mount(), mount()
	if a != b {
		t.Fatalf("mount reports differ:\n%+v\n%+v", a, b)
	}
}

// A device without power takes no host I/O: every entry point refuses
// with ErrPowerLost, nothing reaches the array that survived the cut,
// and what was offered in between is not there after the remount. (The
// cut controller and engine still exist; before the stack knew it was
// down, Write queued onto them and Run programmed the page, which
// roll-forward then recovered.)
func TestPowerCutRefusesHostIO(t *testing.T) {
	s, err := New(recoveryOptions())
	if err != nil {
		t.Fatal(err)
	}
	s.Prefill(1000)
	fe, err := s.AttachFrontEnd([]QueueSpec{{Name: "q"}}, ArbRR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PowerCut(); err != nil {
		t.Fatal(err)
	}
	programs := s.dev.Array().Stats().Programs

	const lpn = 5000 // never written before the cut
	acked := false
	for name, err := range map[string]error{
		"Write":            s.Write(lpn, func() { acked = true }),
		"Read":             s.Read(0, nil),
		"FrontEnd.Submit":  fe.Submit(0, true, lpn, 1, nil),
		"RunWorkload":      second(s.RunWorkload("Mixed", 100, 8)),
		"RunWorkloadUntil": second(s.RunWorkloadUntil("Mixed", 100, 8, s.Now()+time.Millisecond)),
		"RunTenants":       second(s.RunTenants([]TenantConfig{{Workload: "Mixed", Requests: 100}}, ArbRR, 0)),
		"RunTrace":         second(s.RunTrace(strings.NewReader("w 5000 1\n"), "t", 1, 1)),
		"ReplayTrace":      second(s.ReplayTrace("msr", openFixture(t), TraceReplayOptions{})),
	} {
		if !errors.Is(err, ErrPowerLost) {
			t.Errorf("%s on a cut device: got %v, want ErrPowerLost", name, err)
		}
	}
	if !Terminal(ErrPowerLost) || Retryable(ErrPowerLost) {
		t.Error("ErrPowerLost must classify as terminal, not retryable")
	}
	if n := s.Prefill(10); n != 0 {
		t.Errorf("Prefill wrote %d pages on a cut device", n)
	}
	if rep := s.AgeMonths(12); rep != (AgeReport{}) {
		t.Errorf("AgeMonths aged a cut device: %+v", rep)
	}
	s.Run()
	fe.Pump()
	s.Quiesce()
	if acked {
		t.Error("a write offered after the cut was acknowledged")
	}
	if got := s.dev.Array().Stats().Programs; got != programs {
		t.Errorf("flash programmed between cut and remount: %d -> %d word lines", programs, got)
	}

	if _, err := s.Remount(true, false); err != nil {
		t.Fatal(err)
	}
	if mapped, err := s.IsMapped(lpn); err != nil || mapped {
		t.Errorf("LPN %d after remount: mapped=%v err=%v, want unmapped", lpn, mapped, err)
	}
	if err := s.Write(lpn, nil); err != nil {
		t.Errorf("write after remount: %v", err)
	}
	s.Run()
	if mapped, _ := s.IsMapped(lpn); !mapped {
		t.Error("the remounted device did not take the write")
	}
}

func second[T any](_ T, err error) error { return err }
