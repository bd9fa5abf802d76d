package experiment

import (
	"fmt"

	"cubeftl/internal/ftl"
	"cubeftl/internal/nand"
	"cubeftl/internal/vth"
)

// Fig13Result compares the reliability of the three program orders
// (Fig 13): because SL transistors isolate word lines within an h-layer,
// the order must not matter (< 3% BER difference, from RTN only).
type Fig13Result struct {
	Orders  []string
	NormBER []float64 // mean programmed BER normalized over horizontal-first
}

// Fig13 programs the same block of process-identical chips in each
// order and compares mean measured BER. Using clones isolates the
// order effect from block-to-block process variation, as the paper's
// controlled chip experiment does.
func Fig13(seed uint64) *Fig13Result {
	orders := []ftl.Order{ftl.OrderHorizontalFirst, ftl.OrderVerticalFirst, ftl.OrderMixed}
	res := &Fig13Result{}
	var ref float64
	for i, o := range orders {
		chip := charChip(seed) // identical process, fresh state
		const block = 0
		cur := ftl.NewBlockCursor(0, block, chip.Config().Process.Layers, chip.Config().Process.WLsPerLayer)
		var sum float64
		var n int
		var r nand.ProgramResult
		for {
			l, w, ok := cur.NextInOrder(o)
			if !ok {
				break
			}
			cur.Take(l, w)
			if err := chip.ProgramWLOOB(nand.Address{Block: block, Layer: l, WL: w}, nil, nil, nand.ProgramParams{}, &r); err != nil {
				panic(err)
			}
			sum += r.MeasuredBER
			n++
		}
		mean := sum / float64(n)
		if i == 0 {
			ref = mean
		}
		res.Orders = append(res.Orders, o.String())
		res.NormBER = append(res.NormBER, mean/ref)
	}
	return res
}

// Table renders Fig 13's bars.
func (r *Fig13Result) Table() *Table {
	t := &Table{
		Title: "Fig 13: normalized BER of program sequences",
		Cols:  []string{"order", "normalized BER"},
	}
	for i := range r.Orders {
		t.Rows = append(t.Rows, []string{r.Orders[i], f3(r.NormBER[i])})
	}
	t.Notes = append(t.Notes, "paper: all three sequences within 3% (RTN only)")
	return t
}

// Fig14Result compares NumRetry distributions with and without the
// PS-aware ORT reuse at end of life (Fig 14).
type Fig14Result struct {
	// Distribution[k] is the fraction of reads taking k retries.
	UnawareDist []float64
	AwareDist   []float64
	UnawareMean float64
	AwareMean   float64
}

// Reduction is the mean-NumRetry reduction (paper: 66%).
func (r *Fig14Result) Reduction() float64 {
	if r.UnawareMean == 0 {
		return 0
	}
	return 1 - r.AwareMean/r.UnawareMean
}

// Fig14 sweeps reads over an end-of-life chip. The PS-unaware controller
// ladders from the default voltages on every read; the PS-aware one
// starts from the h-layer's cached offset (ORT), paying the ladder only
// on the first read of an h-layer and after retention advances mid-sweep.
func Fig14(seed uint64) *Fig14Result {
	const (
		blocks     = 48
		readsPerWL = 1
		sweepSteps = 6 // retention advances during the sweep: 4 -> 12 months
	)
	run := func(aware bool) (dist []float64, mean float64) {
		chip := charChip(seed) // identical chips for both controllers
		chip.SetReadJitterProb(0.5)
		m := chip.Model()
		for b := 0; b < blocks; b++ {
			chip.SetPECycles(b, 2000)
		}
		chip.SetFixedRetention(4)
		// Program everything once (leaders only are enough: read WL0).
		var r nand.ProgramResult
		for b := 0; b < blocks; b++ {
			for l := 0; l < m.Config().Layers; l++ {
				if err := chip.ProgramWLOOB(nand.Address{Block: b, Layer: l, WL: 0}, nil, nil, nand.ProgramParams{}, &r); err != nil {
					panic(err)
				}
			}
		}
		ort := make(map[int]int)
		counts := make([]int, vth.MaxReadOffsetLevel+1)
		total, retries := 0, 0
		for step := 0; step < sweepSteps; step++ {
			chip.SetFixedRetention(4 + 8*float64(step)/float64(sweepSteps-1))
			for b := 0; b < blocks; b++ {
				for l := 0; l < m.Config().Layers; l++ {
					for rep := 0; rep < readsPerWL; rep++ {
						start := 0
						if aware {
							start = ort[b*m.Config().Layers+l]
						}
						r, err := chip.ReadPage(nand.Address{Block: b, Layer: l, WL: 0}, nand.ReadParams{StartOffset: start})
						if err != nil {
							continue // uncorrectable tail; excluded as in the paper's retry histogram
						}
						if aware {
							ort[b*m.Config().Layers+l] = r.OffsetUsed
						}
						k := r.Retries
						if k >= len(counts) {
							k = len(counts) - 1
						}
						counts[k]++
						total++
						retries += r.Retries
					}
				}
			}
		}
		dist = make([]float64, len(counts))
		for i, c := range counts {
			dist[i] = float64(c) / float64(total)
		}
		return dist, float64(retries) / float64(total)
	}
	res := &Fig14Result{}
	res.UnawareDist, res.UnawareMean = run(false)
	res.AwareDist, res.AwareMean = run(true)
	return res
}

// Table renders Fig 14's distributions.
func (r *Fig14Result) Table() *Table {
	t := &Table{
		Title: "Fig 14: NumRetry distribution, PS-unaware vs PS-aware (2K P/E, ~1yr retention)",
		Cols:  []string{"NumRetry", "PS-unaware", "PS-aware (ORT)"},
	}
	for k := range r.UnawareDist {
		t.Rows = append(t.Rows, []string{
			d(k),
			fmt.Sprintf("%.1f%%", 100*r.UnawareDist[k]),
			fmt.Sprintf("%.1f%%", 100*r.AwareDist[k]),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("mean NumRetry: %.2f -> %.2f, reduction %.0f%% (paper: 66%%)",
			r.UnawareMean, r.AwareMean, 100*r.Reduction()))
	return t
}
