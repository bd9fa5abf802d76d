package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"cubeftl"
	"cubeftl/internal/host"
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
// ("18mo"), or a Go duration ("4380h") converted at 730h per month. The
// age must be positive and at most 100 years.
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
		months = d.Hours() / 730
	}
	if !(months > 0 && months <= maxAgeMonths) { // NaN and +Inf fail too
		return 0, fmt.Errorf("cubesim: -age must be positive and at most 100y, got %q", spec)
	}
	return months, nil
}

// validateRecoveryFlags rejects flag combinations the power-cut path
// does not support: the cut drives a single synthetic workload stream,
// so multi-tenant mode, trace replay, and trace recording are out.
func validateRecoveryFlags(pc powercutSpec, queues, tracePath, record string) error {
	if pc.mode == pcOff {
		return nil
	}
	switch {
	case queues != "":
		return fmt.Errorf("cubesim: -powercut does not combine with -queues (single-stream only)")
	case tracePath != "":
		return fmt.Errorf("cubesim: -powercut does not combine with -trace (synthetic workloads only)")
	case record != "":
		return fmt.Errorf("cubesim: -powercut does not combine with -record")
	}
	return nil
}

// parseTenants parses the -queues spec: comma-separated tenant streams,
// each "workload" or "name=workload".
func parseTenants(spec string, requests, qd int) ([]cubeftl.TenantConfig, error) {
	var tenants []cubeftl.TenantConfig
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, wl := "", part
		if eq := strings.IndexByte(part, '='); eq >= 0 {
			name, wl = part[:eq], part[eq+1:]
		}
		tenants = append(tenants, cubeftl.TenantConfig{
			Name: name, Workload: wl, Requests: requests, QueueDepth: qd,
		})
	}
	if len(tenants) == 0 {
		return nil, fmt.Errorf("cubesim: -queues named no tenants")
	}
	return tenants, nil
}

// setTenantKnobs sets each tenant's WRR weight, rate cap and priority
// from the -weights, -rate and -prios lists. A rate cap is 0 (uncapped)
// or what host.CheckRate accepts; anything else is an error naming
// -rate and the tenant.
func setTenantKnobs(tenants []cubeftl.TenantConfig, weights, rates, prios string) error {
	ws, err := splitList("-weights", weights, len(tenants))
	if err != nil {
		return err
	}
	rs, err := splitList("-rate", rates, len(tenants))
	if err != nil {
		return err
	}
	ps, err := splitList("-prios", prios, len(tenants))
	if err != nil {
		return err
	}
	for i := range tenants {
		if err := host.CheckRate(rs[i]); err != nil {
			return fmt.Errorf("cubesim: -rate: tenant %d: %v", i+1, err)
		}
		tenants[i].Weight = int(ws[i])
		tenants[i].RateIOPS = rs[i]
		tenants[i].Priority = int(ps[i])
	}
	return nil
}

// splitList parses a comma-separated numeric flag into per-tenant
// values: empty spec means all-default (zero), otherwise exactly one
// value per tenant (an empty entry, as in "8,,1", keeps the default).
// Errors name the offending flag and the expected count.
func splitList(flagName, spec string, n int) ([]float64, error) {
	out := make([]float64, n)
	if spec == "" {
		return out, nil
	}
	parts := strings.Split(spec, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("cubesim: %s: got %d values, want %d (one per -queues tenant)",
			flagName, len(parts), n)
	}
	for i, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("cubesim: %s: bad value %q: %v", flagName, p, err)
		}
		out[i] = v
	}
	return out, nil
}
