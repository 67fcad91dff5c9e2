package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestParseBenchLine pins how one `go test -bench` result line becomes an
// envelope entry: the GOMAXPROCS suffix stripped from the name, the three
// standard units in their fields, every other value/unit pair (b.SetBytes
// throughput, b.ReportMetric units) in Metrics.
func TestParseBenchLine(t *testing.T) {
	for _, tc := range []struct {
		name     string
		line     string
		wantName string
		want     Result
	}{
		{
			name:     "plain",
			line:     "BenchmarkSimRun-8   \t      12\t  97819667 ns/op\t 9280474 B/op\t    1466 allocs/op",
			wantName: "SimRun",
			want:     Result{Iterations: 12, NsPerOp: 97819667, BytesPerOp: 9280474, AllocsPerO: 1466},
		},
		{
			name:     "no_gomaxprocs_suffix",
			line:     "BenchmarkPredict \t 1000000\t      1042 ns/op",
			wantName: "Predict",
			want:     Result{Iterations: 1000000, NsPerOp: 1042},
		},
		{
			name:     "report_metric_units",
			line:     "BenchmarkFig8-2   3   420000000 ns/op   3.600 HO/km   0.8123 F1   9280474 B/op   1466 allocs/op",
			wantName: "Fig8",
			want: Result{Iterations: 3, NsPerOp: 4.2e8, BytesPerOp: 9280474, AllocsPerO: 1466,
				Metrics: map[string]float64{"HO/km": 3.6, "F1": 0.8123}},
		},
		{
			name:     "set_bytes_throughput",
			line:     "BenchmarkJSONLDecodeSample-2   200000   4088 ns/op   111.31 MB/s   0 B/op   0 allocs/op",
			wantName: "JSONLDecodeSample",
			want:     Result{Iterations: 200000, NsPerOp: 4088, Metrics: map[string]float64{"MB/s": 111.31}},
		},
		{
			name:     "sub_benchmark_keeps_inner_dashes",
			line:     "BenchmarkServe/jsonl-win16-4   100   52013 ns/op",
			wantName: "Serve/jsonl-win16",
			want:     Result{Iterations: 100, NsPerOp: 52013},
		},
		{
			name:     "scientific_values",
			line:     "BenchmarkSweep-2   1   1.234e+10 ns/op   2.5e-03 miss/op",
			wantName: "Sweep",
			want:     Result{Iterations: 1, NsPerOp: 1.234e10, Metrics: map[string]float64{"miss/op": 0.0025}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			name, got, err := parseBenchLine(tc.line)
			if err != nil {
				t.Fatal(err)
			}
			if name != tc.wantName || !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("parseBenchLine(%q)\n got %q %+v\nwant %q %+v", tc.line, name, got, tc.wantName, tc.want)
			}
		})
	}
}

// TestParseBenchLineCountRepeats covers `-count N` output: every repeat
// of a benchmark parses to the same name with its own values (the
// envelope keeps the last one read).
func TestParseBenchLineCountRepeats(t *testing.T) {
	lines := []string{
		"BenchmarkServe-2   1000   51234 ns/op   48 B/op   1 allocs/op",
		"BenchmarkServe-2   1000   49876 ns/op   48 B/op   1 allocs/op",
		"BenchmarkServe-2   1200   50500 ns/op   48 B/op   1 allocs/op",
	}
	wantNs := []float64{51234, 49876, 50500}
	for i, line := range lines {
		name, res, err := parseBenchLine(line)
		if err != nil {
			t.Fatal(err)
		}
		if name != "Serve" || res.NsPerOp != wantNs[i] {
			t.Errorf("repeat %d parsed to %q %+v", i, name, res)
		}
	}
}

// TestParseBenchLineMalformed pins the rejections: main skips these lines
// with a warning instead of recording a bogus entry.
func TestParseBenchLineMalformed(t *testing.T) {
	for _, tc := range []struct{ line, wantErr string }{
		{"BenchmarkFoo-8", "too few fields"},                          // the header -v prints
		{"BenchmarkFoo-8   10   5", "too few fields"},                 // truncated
		{"BenchmarkFoo-8   many   5 ns/op   1 B/op", "iterations"},    // non-numeric count
		{"BenchmarkFoo-8   10   fast ns/op   1 B/op", `value "fast"`}, // non-numeric value
		{"BenchmarkFoo-8   10   5 ns/op   x B/op", `value "x"`},
		{"BenchmarkFoo-8   10   5 ns/op   7", `value "7" without a unit`}, // cut mid-pair
	} {
		name, res, err := parseBenchLine(tc.line)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("parseBenchLine(%q) = %q %+v, %v; want an error mentioning %q", tc.line, name, res, err, tc.wantErr)
		}
	}
}
