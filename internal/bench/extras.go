package bench

import (
	"fmt"
	"strings"

	"messengers/internal/apps"
	"messengers/internal/lan"
)

// RunT2 regenerates the §3.2.2 speedup claims: MESSENGERS block multiply at
// n=1000 on 4 processors and n=1500 on 9 processors against the two
// sequential baselines.
func RunT2(cm *lan.CostModel) (*Table, error) {
	type pt struct {
		label      string
		sweep      MatmulSweep
		paperBlk   float64
		paperNaive float64
	}
	pts := []pt{
		{"n=1000, 2x2 (110 MHz)", MatmulSweep{Name: "T2a", M: 2, Host: lan.SPARC110, BlockSizes: []int{500}}, 3.7, 4.5},
		{"n=1500, 3x3 (170 MHz)", MatmulSweep{Name: "T2b", M: 3, Host: lan.SPARC170, FastEthernet: true, BlockSizes: []int{500}}, 5.8, 6.7},
	}
	t := &Table{
		Title:   "T2 (§3.2.2): MESSENGERS speedups over the sequential baselines",
		Columns: []string{"configuration", "over seq block", "paper", "over seq naive", "paper"},
	}
	for _, p := range pts {
		fig, err := RunMatmulFigure(cm, p.sweep)
		if err != nil {
			return nil, err
		}
		ob, on, _ := fig.SpeedupAt(500)
		t.Rows = append(t.Rows, []string{
			p.label,
			fmt.Sprintf("%.1f", ob), fmt.Sprintf("%.1f", p.paperBlk),
			fmt.Sprintf("%.1f", on), fmt.Sprintf("%.1f", p.paperNaive),
		})
	}
	return t, nil
}

// pvmMandelListing is the message-passing manager/worker program (the
// paper's Figure 2) as it actually runs in internal/apps: the manager and
// worker bodies, counted statement for statement against the MESSENGERS
// script. The listing mirrors apps.MandelPVM.
const pvmMandelListing = `
	manager() {
		for (i = 0; i < nworkers; i++)
			worker[i] = spawn(worker_func, host[i]);
		for (i = 0; i < nworkers; i++) {
			initsend(); pkint(next_task());
			send(worker[i], TASK);
		}
		while (outstanding > 0) {
			buf = recv(ANY, RESULT);
			task = upkint(buf); pix = upkbytes(buf);
			deposit(task, pix);
			if (tasks_available()) {
				initsend(); pkint(next_task());
				send(sender(buf), TASK);
			} else {
				kill(sender(buf));
				outstanding--;
			}
		}
	}
	worker_func() {
		while (TRUE) {
			buf = recv(parent(), TASK);
			task = upkint(buf);
			pix = compute(task);
			initsend(); pkint(task); pkbytes(pix);
			send(parent(), RESULT);
		}
	}
`

// pvmMatmulListing is the Figure 9 program as it runs in apps.MatmulPVM.
const pvmMatmulListing = `
	matrix_mult(s, m, i, j) {
		if (parent() == VOID) {
			for (i = 0; i < m; i++)
				for (j = 0; j < m; j++)
					spawn(matrix_mult, s, m, i, j);
			return;
		}
		joingroup("mmult", i*m + j);
		for (k = 0; k < m; k++)
			myrow[k] = gettid("mmult", i*m + k);
		north = gettid("mmult", ((i-1+m)%m)*m + j);
		south = gettid("mmult", ((i+1)%m)*m + j);
		for (k = 0; k < m; k++) {
			if (j == (i + k) % m) {
				initsend(); pkmat(block_A);
				mcast(myrow, ATAG + k);
				curr_A = block_A;
			} else {
				buf = recv(ANY, ATAG + k);
				upkmat(buf, curr_A);
			}
			multiply_add(block_C, curr_A, block_B);
			initsend(); pkmat(block_B);
			send(north, BTAG + k);
			buf = recv(south, BTAG + k);
			upkmat(buf, block_B);
		}
	}
`

// codeLines counts non-blank, non-comment statement lines of a listing.
func codeLines(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		s := strings.TrimSpace(line)
		if s == "" || strings.HasPrefix(s, "//") {
			continue
		}
		if s == "{" || s == "}" || s == "};" {
			continue
		}
		n++
	}
	return n
}

// RunT3 regenerates the programming-style comparison (§3.1.1, §3.2.1): the
// MESSENGERS programs are single scripts and substantially shorter than
// their message-passing equivalents.
func RunT3() *Table {
	t := &Table{
		Title:   "T3: program length (non-blank statement lines) and component count",
		Columns: []string{"application", "system", "lines", "program components"},
	}
	rows := []struct {
		app, system, comps string
		lines              int
	}{
		{"Mandelbrot (Figs. 2 vs 3)", "MESSENGERS", "1 script", codeLines(apps.MsgrMandelScript)},
		{"Mandelbrot (Figs. 2 vs 3)", "PVM", "manager + worker", codeLines(pvmMandelListing)},
		{"Matmul (Figs. 9 vs 11)", "MESSENGERS", "2 scripts", codeLines(apps.MsgrDistributeA) + codeLines(apps.MsgrRotateB)},
		{"Matmul (Figs. 9 vs 11)", "PVM", "1 spawning program", codeLines(pvmMatmulListing)},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.app, r.system, fmt.Sprintf("%d", r.lines), r.comps,
		})
	}
	return t
}
