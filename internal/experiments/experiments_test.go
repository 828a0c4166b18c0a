package experiments

import (
	"strings"
	"testing"
)

func TestTable1Scaled(t *testing.T) {
	rows, err := Table1(0.02) // 2% of paper sizes keeps the test fast
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 13 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Unresolved != 0 {
			t.Fatalf("%s: %d unresolved ambiguities; generator promises typedef-resolvable ones", r.Name, r.Unresolved)
		}
		if r.ResolvedDecl != r.Ambiguous {
			t.Fatalf("%s: resolved %d of %d", r.Name, r.ResolvedDecl, r.Ambiguous)
		}
		// The paper's headline: explicit ambiguity costs well under ~1.2%.
		if r.MeasuredPct > 1.3 {
			t.Fatalf("%s: overhead %.3f%% out of the paper's range", r.Name, r.MeasuredPct)
		}
	}
	s := FormatTable1(rows)
	if !strings.Contains(s, "gcc") {
		t.Fatalf("format:\n%s", s)
	}
}

func TestTable1OverheadTracksDensity(t *testing.T) {
	rows, err := Table1(0.02)
	if err != nil {
		t.Fatal(err)
	}
	// Programs with a zero paper column should measure (near) zero, and
	// the densest (ghostscript 0.52) should measure the most among C
	// programs of its size class.
	var zero, dense float64
	for _, r := range rows {
		switch r.Name {
		case "go":
			zero = r.MeasuredPct
		case "ghostscript-3.33":
			dense = r.MeasuredPct
		}
	}
	if zero != 0 {
		t.Fatalf("go should have zero ambiguity overhead, got %f", zero)
	}
	if dense <= zero {
		t.Fatalf("ghostscript (%.3f) should exceed go (%.3f)", dense, zero)
	}
}

func TestFigure4Small(t *testing.T) {
	res, err := Figure4(40, 300)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range res.Bins {
		total += b.Files
	}
	if total != 40 {
		t.Fatalf("binned files = %d", total)
	}
	if res.Bins[0].Files == 0 {
		t.Fatal("expected a mass of unambiguous files in the first bin (gcc's shape)")
	}
	if res.MeanPct > 1.2 {
		t.Fatalf("mean %.3f%% out of range", res.MeanPct)
	}
	if FormatFigure4(res) == "" {
		t.Fatal("empty format")
	}
}

// TestSection5BatchShape asserts work, not wall-clock time: on the §5
// conflict-free program the IGLR parser must do exactly the deterministic
// parser's shifts and reductions, with one stack throughout. The time
// ratio (1.25x in the paper's system) is logged, not asserted — on a
// shared machine one scheduler stall skews it.
func TestSection5BatchShape(t *testing.T) {
	r, err := RunSection5Batch(2500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Tokens == 0 || r.DetShifts == 0 || r.DetReductions == 0 {
		t.Fatalf("result = %+v", r)
	}
	if r.IGLRShifts != r.DetShifts || r.IGLRReductions != r.DetReductions {
		t.Fatalf("work differs: det %d shifts/%d reductions, IGLR %d/%d",
			r.DetShifts, r.DetReductions, r.IGLRShifts, r.IGLRReductions)
	}
	if r.IGLRSplits != 0 || r.IGLRMaxActiveParsers != 1 {
		t.Fatalf("IGLR went non-deterministic: %d splits, max %d active parsers",
			r.IGLRSplits, r.IGLRMaxActiveParsers)
	}
	t.Logf("%d shifts, %d reductions each; IGLR/det time ratio %.2f",
		r.DetShifts, r.DetReductions, r.Ratio)
}

func TestSection5IncrementalShape(t *testing.T) {
	r, err := RunSection5Incremental(600, 12)
	if err != nil {
		t.Fatal(err)
	}
	// Shape: reparse work is far below the program size. Wall-clock ratios
	// at this scale are microseconds and a single GC pause swamps them, so
	// the time bound is only a sanity ceiling; cmd/paperbench measures the
	// ratio at a scale where it is stable (~1.2-1.3).
	if r.Ratio > 10 || r.Ratio <= 0 {
		t.Fatalf("incremental ratio %.2f", r.Ratio)
	}
	if r.IGLRShiftsPerRe > float64(r.Statements) {
		t.Fatalf("shifts per reparse %.0f not sublinear", r.IGLRShiftsPerRe)
	}
}

func TestSection5Space(t *testing.T) {
	r, err := RunSection5Space(400)
	if err != nil {
		t.Fatal(err)
	}
	if r.NodeCountRatio != 1.0 {
		t.Fatalf("node parity broken: %+v", r)
	}
	if r.StatePct <= 0 || r.StatePct > 30 {
		t.Fatalf("state share %.1f%%", r.StatePct)
	}
}

func TestSection5Ambiguity(t *testing.T) {
	r, err := RunSection5Ambiguity(1500, 10)
	if err != nil {
		t.Fatal(err)
	}
	// The paper: well under 1% additional reconstruction time. Wall time
	// is too noisy at test scale, so assert on the deterministic parser
	// work counters: the edits land outside the ambiguous regions, so the
	// extra work should be a few percent at most.
	if r.WorkOverheadPct > 25 {
		t.Fatalf("ambiguity work overhead %.1f%% is not small: %+v", r.WorkOverheadPct, r)
	}
	if r.Ambiguous == 0 {
		t.Fatal("no ambiguous constructs generated")
	}
}

func TestAsymptoticsShape(t *testing.T) {
	pts, err := RunAsymptotics([]int{200, 800, 3200}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatal("points missing")
	}
	// List work grows linearly with N…
	growth := pts[2].ListShiftsPerEdit / pts[0].ListShiftsPerEdit
	if growth < 4 {
		t.Fatalf("list shifts should grow ~16x over a 16x size range, got %.1fx", growth)
	}
	// …while the balanced depth grows logarithmically.
	if pts[2].BalancedDepth > 4*pts[0].BalancedDepth {
		t.Fatalf("balanced depth not logarithmic: %d vs %d",
			pts[2].BalancedDepth, pts[0].BalancedDepth)
	}
	if FormatAsymptotics(pts) == "" {
		t.Fatal("empty format")
	}
}

func TestBalancedSeqEditing(t *testing.T) {
	bs, err := NewBalancedSeq(seqProgram(100))
	if err != nil {
		t.Fatal(err)
	}
	if bs.Len() != 100 {
		t.Fatalf("len = %d", bs.Len())
	}
	if err := bs.ReplaceElement(50, "v50 = v50 + 777;"); err != nil {
		t.Fatal(err)
	}
	if got := bs.Element(50).Yield(); got != "v50=v50+777;" {
		t.Fatalf("element 50 = %q", got)
	}
	if bs.Element(49).Yield() != "v49=v49+49;" {
		t.Fatalf("neighbor disturbed: %q", bs.Element(49).Yield())
	}
	if err := bs.ReplaceElement(0, "x = ;"); err == nil {
		t.Fatal("invalid element text must fail to parse")
	}
}

func TestFilterStagingShape(t *testing.T) {
	pts, err := RunFilterStaging([]int{4, 8, 16}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.DynamicNodes <= p.StaticNodes {
			t.Fatalf("k=%d: dynamic dag (%d) should exceed static (%d)",
				p.Operands, p.DynamicNodes, p.StaticNodes)
		}
	}
	// Dynamic node growth must be superlinear (quadratic-ish) while
	// static stays linear.
	dynGrowth := float64(pts[2].DynamicNodes) / float64(pts[0].DynamicNodes)
	statGrowth := float64(pts[2].StaticNodes) / float64(pts[0].StaticNodes)
	if dynGrowth < 1.5*statGrowth {
		t.Fatalf("dynamic growth %.1fx should outpace static %.1fx", dynGrowth, statGrowth)
	}
	if FormatFilterStaging(pts) == "" {
		t.Fatal("empty format")
	}
}

func TestAblationShape(t *testing.T) {
	r, err := RunAblation(800, 6)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's claims: LR(1) tables are much larger…
	if r.LR1States <= r.LALRStates || r.LR1Cells <= r.LALRCells {
		t.Fatalf("LR(1) should be larger: %+v", r)
	}
	// …while both drive the same parses; incremental work is comparable
	// (LALR no worse than a small factor).
	if r.LALRIncShifts > 2*r.LR1IncShifts+10 {
		t.Fatalf("LALR incremental reuse should not be worse: %+v", r)
	}
}

func TestEarleyComparisonShape(t *testing.T) {
	pts, err := RunEarleyComparison([]int{1000, 4000})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Speedup < 1 {
			t.Fatalf("GLR should beat Earley on a deterministic grammar: %+v", p)
		}
	}
	if FormatEarleyComparison(pts) == "" {
		t.Fatal("empty format")
	}
}

func TestFigure7Experiment(t *testing.T) {
	r, err := RunFigure7()
	if err != nil {
		t.Fatal(err)
	}
	if r.Parses != 1 || r.MaxParsers < 2 {
		t.Fatalf("result = %+v", r)
	}
	found := false
	for _, n := range r.MultiStateNodes {
		if n == "B" || n == "U" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected B/U among multi-state nodes: %v", r.MultiStateNodes)
	}
	if FormatFigure7(r) == "" {
		t.Fatal("empty format")
	}
}
