package cubeftl

import (
	"fmt"
	"io"
	"sort"

	"cubeftl/internal/experiment"
)

// FigureIDs lists the paper figures (and extension/ablation studies)
// this library can regenerate, in sorted order.
func FigureIDs() []string {
	ids := make([]string, 0, len(figures))
	for id := range figures {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// evalOpts builds the standard SSD-evaluation options for a seed.
func evalOpts(seed uint64, pe int, retention float64) experiment.SSDOpts {
	o := experiment.DefaultSSDOpts()
	o.Seed = seed
	o.PECycles, o.RetentionMonths = pe, retention
	return o
}

var figures = map[string]func(seed uint64) *experiment.Table{
	"fig5":  func(seed uint64) *experiment.Table { return experiment.Fig05(seed).Table() },
	"fig6":  func(seed uint64) *experiment.Table { return experiment.Fig06(seed).Table() },
	"fig8":  func(seed uint64) *experiment.Table { return experiment.Fig08(seed).Table() },
	"fig10": func(seed uint64) *experiment.Table { return experiment.Fig10(seed).Table() },
	"fig11": func(seed uint64) *experiment.Table { return experiment.Fig11(seed).Table() },
	"fig13": func(seed uint64) *experiment.Table { return experiment.Fig13(seed).Table() },
	"fig14": func(seed uint64) *experiment.Table { return experiment.Fig14(seed).Table() },
	"fig17a": func(seed uint64) *experiment.Table {
		return experiment.Fig17(evalOpts(seed, 0, 0)).Table()
	},
	"fig17b": func(seed uint64) *experiment.Table {
		return experiment.Fig17(evalOpts(seed, 2000, 1)).Table()
	},
	"fig17c": func(seed uint64) *experiment.Table {
		return experiment.Fig17(evalOpts(seed, 2000, 12)).Table()
	},
	"fig18": func(seed uint64) *experiment.Table {
		return experiment.Fig18(evalOpts(seed, 0, 0)).Table()
	},
	"tprog": func(seed uint64) *experiment.Table {
		return experiment.TprogAudit(evalOpts(seed, 0, 0)).Table()
	},
	"relwork": func(seed uint64) *experiment.Table {
		return experiment.RelWork(evalOpts(seed, 0, 0)).Table()
	},
	"ext-tail": func(seed uint64) *experiment.Table {
		return experiment.ExtTailLatency(evalOpts(seed, 0, 0)).Table()
	},
	"ext-retry": func(seed uint64) *experiment.Table {
		return experiment.ExtRetryPipeline(evalOpts(seed, 0, 0)).Table()
	},
	"ext-lifetime": func(seed uint64) *experiment.Table {
		o := evalOpts(seed, 0, 0)
		o.RetryMode = "ort-pr"
		return experiment.ExtLifetime(o).Table()
	},
	"ext-faults": func(seed uint64) *experiment.Table {
		return experiment.ExtFaultTolerance(evalOpts(seed, 0, 0)).Table()
	},
	"ext-qos": func(seed uint64) *experiment.Table {
		return experiment.ExtQoS(evalOpts(seed, 0, 0)).Table()
	},
	"ext-parallel": func(seed uint64) *experiment.Table {
		return experiment.ExtParallelScaling(evalOpts(seed, 0, 0)).Table()
	},
	"abl-mu": func(seed uint64) *experiment.Table {
		return experiment.AblationMuThreshold(evalOpts(seed, 0, 0)).Table()
	},
	"abl-blocks": func(seed uint64) *experiment.Table {
		return experiment.AblationActiveBlocks(evalOpts(seed, 0, 0)).Table()
	},
	"abl-order": func(seed uint64) *experiment.Table {
		return experiment.AblationProgramOrder(evalOpts(seed, 0, 0)).Table()
	},
	"abl-ort": func(seed uint64) *experiment.Table {
		return experiment.AblationORTGranularity(evalOpts(seed, 0, 0)).Table()
	},
	"abl-safety": func(seed uint64) *experiment.Table {
		return experiment.AblationSafetyCheck(evalOpts(seed, 0, 0)).Table()
	},
}

// ReproduceFigure runs the experiment behind one of the paper's data
// figures and prints its rows/series to w. Valid ids are returned by
// FigureIDs.
func ReproduceFigure(id string, seed uint64, w io.Writer) error {
	f, ok := figures[id]
	if !ok {
		return fmt.Errorf("cubeftl: unknown figure %q (have %v)", id, FigureIDs())
	}
	f(seed).Fprint(w)
	return nil
}

// ReproduceFigureJSON is ReproduceFigure with machine-readable output
// (one JSON object: title, columns, rows, notes).
func ReproduceFigureJSON(id string, seed uint64, w io.Writer) error {
	f, ok := figures[id]
	if !ok {
		return fmt.Errorf("cubeftl: unknown figure %q (have %v)", id, FigureIDs())
	}
	return f(seed).FprintJSON(w)
}
