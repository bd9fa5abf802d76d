package telemetry

import (
	"errors"
	"sync"
	"testing"

	"cubeftl/internal/metrics"
)

func TestRegistryDuplicateNameRejected(t *testing.T) {
	r := NewRegistry()
	if err := r.RegisterGauge("a/b", func() float64 { return 0 }); err != nil {
		t.Fatalf("first Gauge: %v", err)
	}
	if err := r.RegisterGauge("a/b", func() float64 { return 0 }); !errors.Is(err, ErrDuplicateName) {
		t.Errorf("duplicate Gauge err = %v, want ErrDuplicateName", err)
	}
	// Collisions across metric kinds are rejected too.
	if err := r.RegisterHist("a/b", func() *metrics.Hist { return nil }); !errors.Is(err, ErrDuplicateName) {
		t.Errorf("Hist over Gauge err = %v, want ErrDuplicateName", err)
	}
	if err := r.RegisterHist("a/c", func() *metrics.Hist { return nil }); err != nil {
		t.Fatalf("fresh Hist: %v", err)
	}
	if err := r.RegisterGauge("a/c", func() float64 { return 1 }); !errors.Is(err, ErrDuplicateName) {
		t.Errorf("Gauge over Hist err = %v, want ErrDuplicateName", err)
	}
}

func TestRegistryMustRegisterStructPanicsOnDuplicate(t *testing.T) {
	r := NewRegistry()
	ledger := struct {
		X int64 `metric:"x counter a ledger row"`
	}{}
	r.MustRegisterStruct("", &ledger, nil)
	defer func() {
		if recover() == nil {
			t.Error("MustRegisterStruct on duplicate did not panic")
		}
	}()
	r.MustRegisterStruct("", &ledger, nil)
}

// A snapshot must be fully detached: mutations after the snapshot do
// not leak into it.
func TestSnapshotIsolation(t *testing.T) {
	r := NewRegistry()
	ledger := struct {
		Ops int64 `metric:"ops counter operations"`
	}{}
	r.MustRegisterStruct("", &ledger, nil)
	v := 3.0
	if err := r.RegisterGauge("util", func() float64 { return v }); err != nil {
		t.Fatal(err)
	}
	h := metrics.NewHist(0)
	h.Add(100)
	if err := r.RegisterHist("lat", func() *metrics.Hist { return h }); err != nil {
		t.Fatal(err)
	}

	ledger.Ops = 10
	snap := r.Snapshot()
	ledger.Ops = 100
	v = 7
	h.Add(900)

	if got := snap.Gauges["ops"]; got != 10 {
		t.Errorf("snapshot ledger row = %v, want 10", got)
	}
	if got := snap.Gauges["util"]; got != 3 {
		t.Errorf("snapshot gauge = %v, want 3", got)
	}
	if got := snap.Hists["lat"].N; got != 1 {
		t.Errorf("snapshot hist n = %d, want 1", got)
	}
	if got := r.Snapshot().Gauges["ops"]; got != 100 {
		t.Errorf("live ledger row = %v, want 100", got)
	}
}

// Snapshots remain consistent while other goroutines register gauges
// concurrently (run with -race: the catalog is lock-protected).
func TestRegistryConcurrentAddAndSnapshot(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if err := r.RegisterGauge("g/"+string(rune('a'+g)), func() float64 { return 200 }); err != nil {
				t.Error(err)
			}
			for i := 0; i < 4; i++ {
				_ = r.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	snap := r.Snapshot()
	if got := len(snap.Gauges); got != 8 {
		t.Fatalf("snapshot gauges = %d, want 8", got)
	}
	for name, v := range snap.Gauges {
		if v != 200 {
			t.Errorf("gauge %s = %v, want 200", name, v)
		}
	}
}
