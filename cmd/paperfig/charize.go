package main

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"cubeftl/internal/nand"
	"cubeftl/internal/process"
)

// charizeID is the one figure id that is not a table: a raw
// process-characterization sweep of a simulated 3D TLC chip, the way the
// paper's §3 study swept real chips on a test board. It dumps
// per-layer/per-WL retention-error samples, deltaV/deltaH metrics, loop
// windows and optimal read offsets over a grid of P/E cycles and
// retention times, as CSV for further analysis.
const charizeID = "charize-csv"

func charizeCSV(out io.Writer, seed uint64, blocks int) error {
	cfg := nand.DefaultConfig()
	cfg.Process.Seed = seed
	chip := nand.New(cfg)
	m := chip.Model()

	w := csv.NewWriter(out)
	if err := w.Write([]string{
		"block", "layer", "wl", "pe", "retention_months",
		"ber", "n_ret_sample", "delta_h", "delta_v",
		"loop_min_p7", "loop_max_p7", "optimal_offset",
	}); err != nil {
		return err
	}
	agings := []process.Aging{
		{PE: 0, RetentionMonths: 0},
		{PE: 500, RetentionMonths: 1},
		{PE: 1000, RetentionMonths: 3},
		{PE: 2000, RetentionMonths: 1},
		{PE: 2000, RetentionMonths: 12},
	}
	for b := 0; b < blocks && b < m.Config().BlocksPerChip; b++ {
		for l := 0; l < m.Config().Layers; l++ {
			for _, a := range agings {
				ws := m.LoopWindows(b, l, a)
				p7 := ws[len(ws)-1]
				dv := m.DeltaV(b, a)
				dh := m.DeltaH(b, l, a)
				opt := m.OptimalOffset(b, l, a)
				for wl := 0; wl < m.Config().WLsPerLayer; wl++ {
					ber := m.BER(b, l, wl, a)
					sample := chip.SampleRetentionErrors(nand.Address{Block: b, Layer: l, WL: wl}, a)
					if err := w.Write([]string{
						strconv.Itoa(b), strconv.Itoa(l), strconv.Itoa(wl),
						strconv.Itoa(a.PE), fmt.Sprintf("%g", a.RetentionMonths),
						fmt.Sprintf("%.6e", ber), strconv.Itoa(sample),
						fmt.Sprintf("%.4f", dh), fmt.Sprintf("%.4f", dv),
						strconv.Itoa(p7.MinLoop), strconv.Itoa(p7.MaxLoop),
						strconv.Itoa(opt),
					}); err != nil {
						return err
					}
				}
			}
		}
	}
	w.Flush()
	return w.Error()
}
