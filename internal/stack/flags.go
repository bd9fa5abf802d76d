package stack

import (
	"flag"
	"fmt"
	"math"
	"reflect"
	"slices"
	"time"

	"cubeftl/internal/core"
)

// deviceFlags declares every command-line flag that sets a Spec field,
// once: cubesim, cubefleet and cubeserved each bind the subset they
// expose (BindFlags) with their own defaults. A field with no row has
// no flag in any binary.
var deviceFlags = []struct{ name, field, usage string }{
	{"ftl", "FTL", "FTL flavor: page, vert, isp, cube, cube-"},
	{"channels", "Channels", "independent NAND channels (data buses; 0 = device default 2)"},
	{"dies", "DiesPerChannel", "NAND dies behind each channel (0 = device default 4)"},
	{"blocks", "BlocksPerChip", "blocks per chip (428 = paper's full chip; 0 = device default 64)"},
	{"seed", "Seed", "random seed (device personality; a fleet derives each shard's from it)"},
	{"pe", "PECycles", "pre-aged P/E cycles (paper: 0 or 2000)"},
	{"retention", "RetentionMonths", "pinned retention age in months (paper: 0, 1 or 12)"},
	{"retry-mode", "RetryMode", "read-retry stack: baseline (no offset caches), ort (default; the paper's flow), ort-pr (pipelined sense/decode + retry table), ort-pr-ar (ort-pr + adaptive sense termination)"},
	{"refresh", "Refresh", "retention-aware background scrubber: rewrite blocks before the ECC cliff, yielding to host traffic"},
	{"wearlevel", "WearLevel", "cross-block static wear leveling (implies wear-aware allocation)"},
	{"pfail", "ProgramFailRate", "program-status failure rate per word-line program"},
	{"efail", "EraseFailRate", "erase failure rate per block erase (grows bad blocks)"},
	{"rfault", "ReadFaultRate", "transient read fault rate per page read"},
	{"badblocks", "FactoryBadRate", "fraction of blocks factory-marked bad at boot"},
	{"recovery", "Recovery", "enable crash consistency (durable acks, checkpoints, remount)"},
	{"ckpt-interval", "CkptInterval", "recovery checkpoint cadence in simulated time (0 = 20ms default, negative disables periodic checkpoints; effective with -powercut)"},
}

// BindFlags registers the named device flags on fs, each writing its
// Spec field and defaulting to the field's current value — a binary's
// defaults are the Spec it binds. A name outside the table is a
// programming error.
func (s *Spec) BindFlags(fs *flag.FlagSet, names ...string) {
	v := reflect.ValueOf(s).Elem()
	bound := 0
	for _, f := range deviceFlags {
		if !slices.Contains(names, f.name) {
			continue
		}
		bound++
		switch p := v.FieldByName(f.field).Addr().Interface().(type) {
		case *string:
			fs.StringVar(p, f.name, *p, f.usage)
		case *int:
			fs.IntVar(p, f.name, *p, f.usage)
		case *uint64:
			fs.Uint64Var(p, f.name, *p, f.usage)
		case *float64:
			fs.Float64Var(p, f.name, *p, f.usage)
		case *bool:
			fs.BoolVar(p, f.name, *p, f.usage)
		case *time.Duration:
			fs.DurationVar(p, f.name, *p, f.usage)
		}
	}
	if bound != len(names) {
		panic(fmt.Sprintf("stack: BindFlags%q names a flag the table does not declare (or one twice)", names))
	}
}

// label names a Spec field the way its user set it: by flag where one
// exists, by field otherwise.
func label(field string) string {
	for _, f := range deviceFlags {
		if f.field == field {
			return "-" + f.name
		}
	}
	return "Spec." + field
}

// Validate rejects what no device can be built from, naming the flag:
// a negative count, a pinned retention age that is negative or not
// finite, a fault rate outside [0, 1] (NaN included), an unknown
// retry mode. Zero always means the documented default. Build calls it;
// the FTL name is checked where it is resolved (Policy).
func (s *Spec) Validate() error {
	v := reflect.ValueOf(s).Elem()
	for i := 0; i < v.NumField(); i++ {
		field := v.Type().Field(i).Name
		switch x := v.Field(i).Interface().(type) {
		case int:
			if x < 0 {
				return fmt.Errorf("stack: %s must not be negative, got %d", label(field), x)
			}
		case float64:
			if field == "RetentionMonths" {
				if !(x >= 0 && x <= math.MaxFloat64) {
					return fmt.Errorf("stack: %s must be a finite, non-negative number of months, got %v", label(field), x)
				}
			} else if !(x >= 0 && x <= 1) {
				return fmt.Errorf("stack: %s is a rate in [0, 1], got %v", label(field), x)
			}
		}
	}
	if _, err := core.RetrySetupFor(s.RetryMode); err != nil {
		return fmt.Errorf("stack: %s: %w", label("RetryMode"), err)
	}
	return nil
}
