// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a stable JSON document on stdout, so benchmark runs can be committed
// and diffed (`make bench-json` writes BENCH_<utc-date>.json).
//
// For every benchmark line it records ns/op, B/op, allocs/op, and any
// extra metrics reported via b.ReportMetric (e.g. HO/km, F1). Context
// lines (goos/goarch/pkg/cpu) are carried into the envelope. With
// -fleet report.json (a cmd/prognosload -report file), the fleet's serving
// latency/throughput report is merged into the envelope under "fleet", and
// -fleet-closed merges a second report under "fleet_closed" — the
// closed-loop peak-capacity run (binary framing, pipelining window; see
// EXPERIMENTS.md §Binary vs JSONL framing) whose predictions_per_sec is
// the serving path's headline number — -fleet-cluster merges the
// 3-node cluster pass under "fleet_cluster", and -fleet-crash the
// node-kill crash pass (cmd/prognosload -node-kill: failovers,
// replication pushes/bytes, warm-resume ratio through a hard node crash)
// under "fleet_crash". One BENCH_<date>.json thus
// tracks the sim substrate and the serving path side by side. Chaos-run reports
// carry their resilience counters
// (lost_samples, reconnects, resumed_sessions, cold_resumes, chaos_seed,
// chaos_faults) in the same section, so reconnect behaviour is diffable
// across commits too. -sweep sweep.json (a `vivisect sweep -report` file)
// merges the policy-portfolio sweep report under "policy_sweep", folding
// convergence/re-convergence/F1-floor numbers into the same envelope.
// -holoop holoop.json (a `vivisect holoop -report` file) merges the
// adaptive-vs-static closed-loop handover comparison under "ho_adaptive".
//
// Regression-gate mode: `benchjson -compare [-threshold 0.15] OLD NEW`
// (flags before the positional paths) reads two envelopes and exits
// non-zero if NEW's serving
// throughput (predictions_per_sec in fleet_closed and fleet_cluster)
// regressed by more than the threshold fraction relative to OLD. Sections
// missing from either file are skipped, so the gate tolerates older
// envelopes that predate a section. Stdin is not read in this mode.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/metrics"
)

// Result holds one benchmark's parsed measurements.
type Result struct {
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	BytesPerOp float64            `json:"b_per_op"`
	AllocsPerO float64            `json:"allocs_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// File is the envelope written to stdout.
type File struct {
	DateUTC    string            `json:"date_utc"`
	GoVersion  string            `json:"go_version"`
	Context    map[string]string `json:"context,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
	// Fleet is the open-loop serving-path load report merged in via
	// -fleet; FleetClosed the closed-loop capacity report via -fleet-closed;
	// FleetCluster the multi-node cluster report via -fleet-cluster (the
	// 3-node closed-loop pass `make bench-json` runs, carrying per-node
	// rows, migration counters, and the warm-resume ratio).
	Fleet        *fleet.Report `json:"fleet,omitempty"`
	FleetClosed  *fleet.Report `json:"fleet_closed,omitempty"`
	FleetCluster *fleet.Report `json:"fleet_cluster,omitempty"`
	// FleetCrash is the node-kill crash-fault pass via -fleet-crash: one
	// node hard-killed mid-load, sessions failed over from replicated state.
	FleetCrash *fleet.Report `json:"fleet_crash,omitempty"`
	// PolicySweep is the carrier-policy portfolio sweep report merged in
	// via -sweep (a `vivisect sweep -report` file): convergence and
	// re-convergence statistics over a generated carrier population.
	PolicySweep *metrics.SweepReport `json:"policy_sweep,omitempty"`
	// HOAdaptive is the adaptive-vs-static closed-loop handover comparison
	// merged in via -holoop (a `vivisect holoop -report` file).
	HOAdaptive *metrics.HOLoopReport `json:"ho_adaptive,omitempty"`
}

// loadFleetReport reads one cmd/prognosload -report file.
func loadFleetReport(path string) *fleet.Report {
	b, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	var rep fleet.Report
	if err := json.Unmarshal(b, &rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: parse fleet report %s: %v\n", path, err)
		os.Exit(1)
	}
	return &rep
}

func main() {
	fleetPath := flag.String("fleet", "", "merge a cmd/prognosload -report JSON file into the envelope")
	fleetClosedPath := flag.String("fleet-closed", "", "merge a closed-loop -report JSON file under fleet_closed")
	fleetClusterPath := flag.String("fleet-cluster", "", "merge a multi-node cluster -report JSON file under fleet_cluster")
	fleetCrashPath := flag.String("fleet-crash", "", "merge a node-kill crash -report JSON file under fleet_crash")
	sweepPath := flag.String("sweep", "", "merge a `vivisect sweep -report` JSON file under policy_sweep")
	holoopPath := flag.String("holoop", "", "merge a `vivisect holoop -report` JSON file under ho_adaptive")
	compare := flag.Bool("compare", false, "compare two envelopes (OLD NEW args) and fail on serving-throughput regression")
	threshold := flag.Float64("threshold", 0.15, "with -compare: max tolerated fractional predictions_per_sec drop")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two args: OLD NEW")
			os.Exit(2)
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1), *threshold))
	}

	out := File{
		DateUTC:    time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		Context:    map[string]string{},
		Benchmarks: map[string]Result{},
	}
	if *fleetPath != "" {
		out.Fleet = loadFleetReport(*fleetPath)
	}
	if *fleetClosedPath != "" {
		out.FleetClosed = loadFleetReport(*fleetClosedPath)
	}
	if *fleetClusterPath != "" {
		out.FleetCluster = loadFleetReport(*fleetClusterPath)
	}
	if *fleetCrashPath != "" {
		out.FleetCrash = loadFleetReport(*fleetCrashPath)
	}
	if *sweepPath != "" {
		rep, err := metrics.ReadSweepFile(*sweepPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		out.PolicySweep = &rep
	}
	if *holoopPath != "" {
		rep, err := metrics.ReadHOLoopFile(*holoopPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		out.HOAdaptive = &rep
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || line == "PASS" || strings.HasPrefix(line, "ok "):
			continue
		case strings.HasPrefix(line, "goos:"), strings.HasPrefix(line, "goarch:"),
			strings.HasPrefix(line, "pkg:"), strings.HasPrefix(line, "cpu:"):
			k, v, _ := strings.Cut(line, ":")
			out.Context[k] = strings.TrimSpace(v)
		case strings.HasPrefix(line, "Benchmark"):
			name, res, err := parseBenchLine(line)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: skipping %q: %v\n", line, err)
				continue
			}
			out.Benchmarks[name] = res
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read stdin: %v\n", err)
		os.Exit(1)
	}
	if len(out.Benchmarks) == 0 && out.Fleet == nil && out.PolicySweep == nil {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found on stdin")
		os.Exit(1)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// parseBenchLine parses one testing benchmark result line:
//
//	BenchmarkName-8  12  97819667 ns/op  3.600 HO/km  9280474 B/op  1466 allocs/op
//
// The -N GOMAXPROCS suffix is stripped from the name; value/unit pairs
// beyond the standard three land in Metrics. A value without its unit
// (a line cut mid-pair) is an error, not a silently dropped figure.
func parseBenchLine(line string) (string, Result, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return "", Result{}, fmt.Errorf("too few fields")
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", Result{}, fmt.Errorf("iterations: %w", err)
	}
	if len(fields)%2 != 0 {
		return "", Result{}, fmt.Errorf("value %q without a unit", fields[len(fields)-1])
	}
	res := Result{Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", Result{}, fmt.Errorf("value %q: %w", fields[i], err)
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.NsPerOp = val
		case "B/op":
			res.BytesPerOp = val
		case "allocs/op":
			res.AllocsPerO = val
		default:
			if res.Metrics == nil {
				res.Metrics = map[string]float64{}
			}
			res.Metrics[unit] = val
		}
	}
	return name, res, nil
}
