package bench

import (
	"fmt"

	"messengers/internal/apps"
	"messengers/internal/lan"
	"messengers/internal/sim"
)

// PaperProcs is the processor axis of Figures 4-7 (1 to 32 workstations).
var PaperProcs = []int{1, 2, 4, 8, 16, 32}

// PaperGrids is the grid axis of Figures 4-6.
var PaperGrids = []int{8, 16, 32}

// MandelSweep describes one Mandelbrot figure.
type MandelSweep struct {
	Name  string // e.g. "Figure 4"
	Size  int    // image edge (320, 640, 1280)
	Grids []int
	Procs []int
}

// MandelFigure holds the measured series of one figure.
type MandelFigure struct {
	Sweep MandelSweep
	// Seq is the sequential C baseline time.
	Seq sim.Time
	// Msgr and PVM are elapsed times indexed [grid][proc].
	Msgr, PVM [][]sim.Time
}

// RunMandelFigure regenerates one of Figures 4-7.
func RunMandelFigure(cm *lan.CostModel, sweep MandelSweep) (*MandelFigure, error) {
	fig := &MandelFigure{Sweep: sweep}
	fig.Seq = apps.MandelSequential(cm, apps.PaperMandelParams(sweep.Size, sweep.Grids[0], 1)).Elapsed
	for _, grid := range sweep.Grids {
		var msgrRow, pvmRow []sim.Time
		for _, procs := range sweep.Procs {
			p := apps.PaperMandelParams(sweep.Size, grid, procs)
			mr, err := apps.MandelMessengers(cm, p)
			if err != nil {
				return nil, fmt.Errorf("bench: %s messengers grid=%d procs=%d: %w", sweep.Name, grid, procs, err)
			}
			pr, err := apps.MandelPVM(cm, p)
			if err != nil {
				return nil, fmt.Errorf("bench: %s pvm grid=%d procs=%d: %w", sweep.Name, grid, procs, err)
			}
			if mr.Checksum != pr.Checksum {
				return nil, fmt.Errorf("bench: %s grid=%d procs=%d: implementations disagree", sweep.Name, grid, procs)
			}
			msgrRow = append(msgrRow, mr.Elapsed)
			pvmRow = append(pvmRow, pr.Elapsed)
		}
		fig.Msgr = append(fig.Msgr, msgrRow)
		fig.PVM = append(fig.PVM, pvmRow)
	}
	return fig, nil
}

// Table renders the figure in the paper's layout: one series per (grid,
// system) across the processor axis, plus speedups over sequential.
func (f *MandelFigure) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("%s: Mandelbrot %dx%d, seq C = %ss", f.Sweep.Name, f.Sweep.Size, f.Sweep.Size, secs(f.Seq)),
		Columns: []string{"grid", "system"},
	}
	for _, p := range f.Sweep.Procs {
		t.Columns = append(t.Columns, fmt.Sprintf("P=%d", p))
	}
	for gi, grid := range f.Sweep.Grids {
		mRow := []string{fmt.Sprintf("%dx%d", grid, grid), "MESSENGERS"}
		pRow := []string{fmt.Sprintf("%dx%d", grid, grid), "PVM"}
		sRow := []string{fmt.Sprintf("%dx%d", grid, grid), "speedup M/PVM"}
		for pi := range f.Sweep.Procs {
			mRow = append(mRow, secs(f.Msgr[gi][pi]))
			pRow = append(pRow, secs(f.PVM[gi][pi]))
			sRow = append(sRow, ratio(f.PVM[gi][pi], f.Msgr[gi][pi]))
		}
		t.Rows = append(t.Rows, mRow, pRow, sRow)
	}
	return t
}

// Fig4Sweep is Figure 4 (320x320). Pass short to trim the axes for quick
// runs.
func Fig4Sweep(short bool) MandelSweep { return mandelSweep("Figure 4", 320, short) }

// Fig5Sweep is Figure 5 (640x640).
func Fig5Sweep(short bool) MandelSweep { return mandelSweep("Figure 5", 640, short) }

// Fig6Sweep is Figure 6 (1280x1280).
func Fig6Sweep(short bool) MandelSweep { return mandelSweep("Figure 6", 1280, short) }

// Fig7Sweep is Figure 7: the most favorable case, 1280x1280 at the
// coarsest (8x8) grid only.
func Fig7Sweep(short bool) MandelSweep {
	s := MandelSweep{Name: "Figure 7", Size: 1280, Grids: []int{8}, Procs: PaperProcs}
	if short {
		s.Procs = []int{1, 8, 32}
	}
	return s
}

func mandelSweep(name string, size int, short bool) MandelSweep {
	s := MandelSweep{Name: name, Size: size, Grids: PaperGrids, Procs: PaperProcs}
	if short {
		s.Grids = []int{8, 32}
		s.Procs = []int{1, 8, 32}
	}
	return s
}
