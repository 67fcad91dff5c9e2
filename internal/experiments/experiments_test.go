package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// fastOpts keeps per-experiment runtime manageable in the test suite.
func fastOpts() Options { return Options{Seed: 2, Scale: 0.25} }

// slowIDs are the experiments that train ML baselines or sweep many ABR
// sessions; they run in the full suite but are skipped under -short.
var slowIDs = map[string]bool{
	"table1": true, "table3": true, "fig14": true, "fig14c": true, "fig15": true,
	"ext-coloc": true,
}

// raceFastIDs is the subset cheap enough for the race detector, whose
// 5-10x CPU overhead would otherwise push the package past the test
// timeout on small machines. Race builds exercise the worker pool with
// these; the plain suite covers every experiment.
var raceFastIDs = map[string]bool{
	"fig4": true, "fig5": true, "fig6": true, "fig7": true,
	"fig8": true, "fig10": true, "fig18": true,
}

// trimmed reports whether the experiment is skipped in this build/mode.
func trimmed(id string) bool {
	if raceEnabled {
		return !raceFastIDs[id]
	}
	return testing.Short() && slowIDs[id]
}

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 20 {
		t.Fatalf("registry has %d experiments, want 20 (every table and figure plus two extensions)", len(all))
	}
	seen := map[string]bool{}
	for _, s := range all {
		if s.ID == "" || s.Paper == "" || s.Run == nil {
			t.Fatalf("incomplete spec %+v", s)
		}
		if seen[s.ID] {
			t.Fatalf("duplicate id %q", s.ID)
		}
		seen[s.ID] = true
		if _, err := ByID(s.ID); err != nil {
			t.Errorf("ByID(%q): %v", s.ID, err)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

// TestAllExperimentsRun executes every experiment at reduced scale and
// sanity-checks the rendered output.
func TestAllExperimentsRun(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			if trimmed(spec.ID) {
				t.Skip("slow experiment skipped under -short/-race")
			}
			tab, err := spec.Run(fastOpts())
			if err != nil {
				t.Fatalf("%s: %v", spec.ID, err)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s produced no rows", spec.ID)
			}
			out := tab.Render()
			if !strings.Contains(out, tab.ID) || !strings.Contains(out, tab.Title) {
				t.Errorf("%s: render missing id/title", spec.ID)
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Header) {
					t.Errorf("%s: row width %d != header %d (%v)", spec.ID, len(row), len(tab.Header), row)
				}
			}
		})
	}
}

// TestHOFrequencyShape asserts the §5.1 ordering from the experiment's own
// rows: SA spacing > LTE spacing > NSA spacing.
func TestHOFrequencyShape(t *testing.T) {
	if raceEnabled {
		t.Skip("single-threaded analysis; covered by the plain suite")
	}
	tab, err := HOFrequency(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	spacing := map[string]float64{}
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("bad spacing cell %q", row[3])
		}
		spacing[row[0]] = v
	}
	lte := spacing["4G/LTE"]
	nsa := spacing["NSA 5G (all procedures)"]
	sa := spacing["SA 5G"]
	if !(nsa < lte && lte < sa) {
		t.Errorf("spacing ordering violated: NSA=%v LTE=%v SA=%v", nsa, lte, sa)
	}
	mmw := spacing["NSA mmWave (5G procedures)"]
	if mmw >= nsa {
		t.Errorf("mmWave spacing %v must be the smallest (NSA all = %v)", mmw, nsa)
	}
}

// TestFig13Shape asserts co-located NSA handovers complete faster.
func TestFig13Shape(t *testing.T) {
	if raceEnabled {
		t.Skip("single-threaded analysis; covered by the plain suite")
	}
	tab, err := Fig13(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	var same, diff float64
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("bad mean cell %q", row[2])
		}
		if strings.HasPrefix(row[0], "same") {
			same = v
		} else {
			diff = v
		}
	}
	if same >= diff {
		t.Errorf("co-located duration %v must be below non-co-located %v", same, diff)
	}
}

// TestFig8Shape asserts the NSA preparation-stage penalty over LTE.
func TestFig8Shape(t *testing.T) {
	if raceEnabled {
		t.Skip("single-threaded analysis; covered by the plain suite")
	}
	tab, err := Fig8(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	var lte, nsaMax float64
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("bad T1 cell %q", row[2])
		}
		switch row[0] {
		case "LTE":
			lte = v
		case "NSA":
			if v > nsaMax {
				nsaMax = v
			}
		}
	}
	if nsaMax <= lte {
		t.Errorf("NSA T1 (%v) must exceed LTE (%v)", nsaMax, lte)
	}
}

func TestTableRender(t *testing.T) {
	tab := Table{
		ID:     "x",
		Title:  "demo",
		Header: []string{"a", "bee"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"note line"},
	}
	out := tab.Render()
	if !strings.Contains(out, "== x: demo ==") {
		t.Error("missing title line")
	}
	if !strings.Contains(out, "note: note line") {
		t.Error("missing note")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 {
		t.Errorf("rendered %d lines, want 6:\n%s", len(lines), out)
	}
}

// TestHOErrorNoteSign pins the Fig 14a/b note's wording for both signs of
// the change: a shrinking error reads "better", a growing one "worse",
// never a negative "better".
func TestHOErrorNoteSign(t *testing.T) {
	for _, tc := range []struct {
		eHO, eHOpr float64
		want       string
	}{
		{40, 20, "40.0 -> 20.0 Mbps with Prognos (50% better; paper 52-61%)"},
		{42.0, 42.8, "42.0 -> 42.8 Mbps with Prognos (2% worse; paper 52-61%)"},
	} {
		got := hoErrorNote(tc.eHO, tc.eHOpr)
		if !strings.HasSuffix(got, tc.want) {
			t.Errorf("hoErrorNote(%v, %v) = %q, want suffix %q", tc.eHO, tc.eHOpr, got, tc.want)
		}
	}
}
