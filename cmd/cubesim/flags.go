package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"cubeftl"
	"cubeftl/internal/host"
	"cubeftl/internal/lifetime"
)

// powercutMode is how -powercut picks the cut instant.
type powercutMode int

const (
	pcOff    powercutMode = iota // no power cut
	pcAt                         // cut a fixed simulated duration into the run
	pcRandom                     // cut at a seed-derived random point in the run
)

// powercutSpec is the parsed -powercut flag.
type powercutSpec struct {
	mode powercutMode
	at   time.Duration // pcAt: offset into the measured run
}

// parsePowercut parses the -powercut spec: empty (off), "random" (a
// seed-derived cut point inside the run), or a positive simulated
// duration into the run such as "5ms".
func parsePowercut(spec string) (powercutSpec, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return powercutSpec{mode: pcOff}, nil
	}
	if spec == "random" {
		return powercutSpec{mode: pcRandom}, nil
	}
	d, err := time.ParseDuration(spec)
	if err != nil {
		return powercutSpec{}, fmt.Errorf("cubesim: -powercut: %q is neither \"random\" nor a duration: %v", spec, err)
	}
	if d <= 0 {
		return powercutSpec{}, fmt.Errorf("cubesim: -powercut must be a positive duration, got %v", d)
	}
	return powercutSpec{mode: pcAt, at: d}, nil
}

// maxAgeMonths bounds -age: a century of wear (65 000 P/E cycles at the
// lifetime model's rate) is past any device's life, and a larger age
// overflowed the integer P/E count the fast-forward adds.
const maxAgeMonths = 1200

// parseAge parses the -age spec into simulated retention months: empty
// (no aging), a count of years ("3y", "2.5y"), a count of months
// ("18mo"), or a Go duration ("4380h") converted by
// lifetime.DurationMonths. The age must be positive and at most 100
// years.
func parseAge(spec string) (float64, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return 0, nil
	}
	var months float64
	switch {
	case strings.HasSuffix(spec, "y"):
		years, err := strconv.ParseFloat(strings.TrimSuffix(spec, "y"), 64)
		if err != nil {
			return 0, fmt.Errorf("cubesim: -age: bad year count %q: %v", spec, err)
		}
		months = years * 12
	case strings.HasSuffix(spec, "mo"):
		var err error
		months, err = strconv.ParseFloat(strings.TrimSuffix(spec, "mo"), 64)
		if err != nil {
			return 0, fmt.Errorf("cubesim: -age: bad month count %q: %v", spec, err)
		}
	default:
		d, err := time.ParseDuration(spec)
		if err != nil {
			return 0, fmt.Errorf("cubesim: -age: %q is not a year count (\"3y\"), month count (\"18mo\"), or duration: %v", spec, err)
		}
		months = lifetime.DurationMonths(d)
	}
	if !(months > 0 && months <= maxAgeMonths) { // NaN and +Inf fail too
		return 0, fmt.Errorf("cubesim: -age must be positive and at most 100y, got %q", spec)
	}
	return months, nil
}

// validateRecoveryFlags rejects flag combinations the power-cut path
// does not support: the cut drives a single synthetic workload stream,
// so multi-tenant mode, trace replay, and trace recording are out.
func validateRecoveryFlags(pc powercutSpec, multiTenant bool, tracePath, record string) error {
	if pc.mode == pcOff {
		return nil
	}
	switch {
	case multiTenant:
		return fmt.Errorf("cubesim: -powercut does not combine with -tenant (single-stream only)")
	case tracePath != "":
		return fmt.Errorf("cubesim: -powercut does not combine with -trace (synthetic workloads only)")
	case record != "":
		return fmt.Errorf("cubesim: -powercut does not combine with -record")
	}
	return nil
}

// parseTenant decodes one -tenant spec: host.ParseQueue's fields plus
// workload=, which defaults to the tenant's name. A depth of 0 is left
// for tenantRuns to fill from -qd.
func parseTenant(spec string) (cubeftl.TenantConfig, error) {
	var wl string
	q, err := host.ParseQueue(spec, map[string]func(string) error{
		"workload": func(v string) error { wl = v; return nil },
	})
	if err != nil {
		return cubeftl.TenantConfig{}, err
	}
	if wl == "" {
		wl = q.Name
	}
	return cubeftl.TenantConfig{
		Name: q.Name, Workload: wl, QueueDepth: q.Depth,
		Weight: q.Weight, Priority: q.Priority, RateIOPS: q.RateIOPS,
	}, nil
}
