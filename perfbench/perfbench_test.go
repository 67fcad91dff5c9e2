package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/trace"
)

func TestQuantileIsExact(t *testing.T) {
	vals := []int64{50, 10, 40, 20, 30}
	if got := quantile(vals, 0.5); got != 30 {
		t.Errorf("p50 = %v, want 30", got)
	}
	if got := quantile(vals, 0.9); got != 46 {
		t.Errorf("p90 = %v, want 46 (interpolated between 40 and 50)", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	tr := newTracer()
	base := tr.t0
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	tr.record("root", -1, 0, 2, at(0), at(100))
	// Two workers' children overlap between 20 and 40 ms and cover 60 ms
	// of the root's 100 between them.
	tr.record("child", 0, 0, 1, at(10), at(40))
	tr.record("child", 0, 1, 1, at(20), at(70))
	self := tr.selfTimes()
	if got, want := self["root"], int64(40*time.Millisecond); got != want {
		t.Errorf("root self = %v, want %v", time.Duration(got), time.Duration(want))
	}
	if got, want := self["child"], int64(80*time.Millisecond); got != want {
		t.Errorf("child self = %v, want %v", time.Duration(got), time.Duration(want))
	}
	if got := tr.perOpNS("child"); got != float64(40*time.Millisecond) {
		t.Errorf("child per op = %v", got)
	}
}

func TestNilTracerIsANoOp(t *testing.T) {
	var tr *tracer
	h := tr.begin("x", -1, 0)
	tr.end(h, "x", 1)
	tr.record("x", -1, 0, 1, time.Now(), time.Now())
	if tr.perOpNS("x") != -1 || tr.perCallNS("x") != -1 {
		t.Error("nil tracer reported a cost")
	}
}

func TestStepsAttachControlRecordsToTheirSample(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	log := &trace.Log{
		Samples:   []trace.Sample{{Time: ms(0)}, {Time: ms(50)}, {Time: ms(100)}},
		Reports:   []cellular.MeasurementReport{{Time: ms(0)}, {Time: ms(30)}, {Time: ms(50)}, {Time: ms(90)}},
		Handovers: []cellular.HandoverEvent{{Time: ms(60)}},
	}
	st := steps(log, 1, 3)
	if len(st) != 2 {
		t.Fatalf("got %d steps, want 2", len(st))
	}
	if len(st[0].reports) != 2 || st[0].reports[0].Time != ms(30) || len(st[0].hos) != 0 {
		t.Errorf("step at 50ms: reports %v, handovers %v", st[0].reports, st[0].hos)
	}
	if len(st[1].reports) != 1 || len(st[1].hos) != 1 {
		t.Errorf("step at 100ms: reports %v, handovers %v", st[1].reports, st[1].hos)
	}
}

// TestMetricsMatchContract keeps the metrics perfbench prints in step
// with BENCHMARK.json at the repository root.
func TestMetricsMatchContract(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside this directory")
	}
	var contract struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &contract); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []metricSpec, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: perfbench has %d metrics, contract %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: perfbench %s (%s), contract %s (%s)", what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", e2eMetrics, contract.EndToEnd)
	check("per_layer", layerMetrics, contract.PerLayer)
	for _, w := range contract.Workloads {
		if _, ok := nominalRate[w.Name]; !ok {
			t.Errorf("workload %s has no nominal rate", w.Name)
		}
	}
}

func TestFiguresTakeEachUnitsFastestRepeat(t *testing.T) {
	r := newResult(8, nil)
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	// Units 0 and 1 each run twice; the second repeat of unit 0 and the
	// first of unit 1 are the faster ones.
	r.lat = append(r.lat, 10, 30)
	r.mark(0, 2, ms(4), 400)
	r.lat = append(r.lat, 100, 300)
	r.mark(1, 4, ms(6), 600)
	r.lat = append(r.lat, 20, 40)
	r.mark(0, 6, ms(9), 800)
	r.lat = append(r.lat, 1000, 3000)
	r.mark(1, 8, ms(12), 1100)
	f := figures(r)
	if f.ops != 4 || f.wall != ms(5) || f.cpu != 400 || f.latencies != 4 {
		t.Errorf("ops %d wall %v cpu %d latencies %d, want 4, 5ms, 400, 4", f.ops, f.wall, f.cpu, f.latencies)
	}
	if f.p50 != (30+200)/2.0 {
		t.Errorf("p50 = %v, want the mean of the segments' medians, 115", f.p50)
	}
	r.pooled = true
	if f := figures(r); f.p50 != (40+100)/2.0 {
		t.Errorf("pooled p50 = %v, want the median of the fastest segments' latencies, 70", f.p50)
	}
}

func TestAnOpFailsOnce(t *testing.T) {
	r := newResult(10, nil)
	r.failOps(3, 2, "session broke")
	r.failOps(4, 1, "wrong response")
	r.failCount(1, "daemon counter off by one")
	if got := r.failures(); got != 2 {
		t.Errorf("failures = %d, want 2 (ops 3 and 4)", got)
	}
	r.failCount(5, "daemon counter off by five")
	if got := r.failures(); got != 5 {
		t.Errorf("failures = %d, want 5", got)
	}
	r.failAll("daemon did not drain")
	if got := r.failures(); got != 10 {
		t.Errorf("failures = %d, want 10", got)
	}
}
