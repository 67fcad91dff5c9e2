package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricValue is one metric as the final line prints it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDetail is one metric in the run report, with its sample count.
type metricDetail struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int64   `json:"samples"`
}

type provenance struct {
	Revision   string           `json:"revision"`
	GoVersion  string           `json:"go_version"`
	CPUModel   string           `json:"cpu_model"`
	NProc      int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	DaemonProc string           `json:"daemon_gomaxprocs"`
	Workload   string           `json:"workload"`
	Seed       int64            `json:"seed"`
	Seconds    int              `json:"seconds"`
	Trace      bool             `json:"trace"`
	Inputs     map[string]int64 `json:"inputs"`
}

// runReport is the full record of a run, printed before the final line
// and written to the output directory.
type runReport struct {
	Provenance provenance              `json:"provenance"`
	Metrics    map[string]metricDetail `json:"metrics"`
	SetupS     []float64               `json:"setup_rounds_s"`
	Attempted  int64                   `json:"attempted"`
	Failed     int64                   `json:"failed"`
	Notes      []string                `json:"notes,omitempty"`
	// SelfNSPerOp is each span name's self time per op it served, from
	// the stored spans of every traced pass.
	SelfNSPerOp map[string]float64 `json:"self_ns_per_op,omitempty"`
	SpanFiles   []string           `json:"span_files,omitempty"`
}

// finalLine is the benchmark's contract with whoever runs it.
type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func report(cfg config, o *outcome) error {
	m := o.main
	rep := runReport{
		Provenance: provenance{
			Revision:   revision(),
			GoVersion:  runtime.Version(),
			CPUModel:   cpuModel(),
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			DaemonProc: daemonProcs(cfg, o.pinned),
			Workload:   cfg.workload,
			Seed:       cfg.seed,
			Seconds:    cfg.seconds,
			Trace:      cfg.trace,
			Inputs:     o.inputs,
		},
		Metrics:   map[string]metricDetail{},
		SetupS:    o.setup,
		Attempted: m.ops,
		Failed:    m.failures(),
		Notes:     m.notes,
	}
	names := sortedKeys(o.probes)
	for _, name := range names {
		p := o.probes[name]
		rep.Attempted += p.ops
		rep.Failed += p.failures()
		for _, n := range p.notes {
			rep.Notes = append(rep.Notes, name+" probe: "+n)
		}
	}

	var specs []metricSpec
	if cfg.trace {
		specs = layerMetrics
		layers, err := mergeLayers(o)
		if err != nil {
			return err
		}
		for _, s := range specs {
			rep.Metrics[s.name] = metricDetail{Value: layers[s.name], Unit: s.unit, Samples: m.ops}
		}
		if err := writeSpans(cfg, o, &rep); err != nil {
			return err
		}
	} else {
		specs = e2eMetrics
		for _, s := range specs {
			v, n := e2e(s.name, o)
			rep.Metrics[s.name] = metricDetail{Value: v, Unit: s.unit, Samples: n}
		}
	}

	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	dir := filepath.Join(cfg.out, "reports")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%t.json", cfg.workload, cfg.seed, cfg.trace))
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("perfbench report %s\n", b)

	line := finalLine{
		Correct:   rep.Failed == 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   map[string]metricValue{},
	}
	for _, s := range specs {
		line.Metrics[s.name] = metricValue{Value: rep.Metrics[s.name].Value, Unit: s.unit}
	}
	b, err = json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// fastestFigures sums the segments fastest picks: their ops, wall time and
// CPU, and the mean of each segment's exact latency quantiles (or, for a
// pooled result, the quantiles of all their latencies).
type fastestFigures struct {
	ops       int64
	wall      time.Duration
	cpu       int64
	p50, p90  float64 // ns
	latencies int64
}

func figures(m *result) fastestFigures {
	var (
		f      fastestFigures
		pooled []int64
	)
	segs := m.fastest()
	for _, sg := range segs {
		f.ops += sg.ops
		f.wall += sg.wall
		f.cpu += sg.cpu
		lat := m.lat[sg.from:sg.to]
		f.latencies += int64(len(lat))
		if m.pooled {
			pooled = append(pooled, lat...)
			continue
		}
		f.p50 += quantile(lat, 0.50) / float64(len(segs))
		f.p90 += quantile(lat, 0.90) / float64(len(segs))
	}
	if m.pooled {
		f.p50, f.p90 = quantile(pooled, 0.50), quantile(pooled, 0.90)
	}
	return f
}

func opsPerS(m *result) float64 {
	f := figures(m)
	return float64(f.ops) / max(f.wall.Seconds(), 1e-9)
}

// e2e computes one end-to-end metric of the main pass and its sample count
// (ops, or per-op latencies). The timed metrics come from the fastest
// repeat of each unit of work. Latency percentiles are exact within each
// such segment, from the raw per-op durations, and averaged over them.
func e2e(name string, o *outcome) (float64, int64) {
	m := o.main
	f := figures(m)
	switch name {
	case "setup_s":
		return median(o.setup), int64(len(o.setup))
	case "ops_per_s":
		return float64(f.ops) / max(f.wall.Seconds(), 1e-9), f.ops
	case "latency_p50_us":
		return f.p50 / 1e3, f.latencies
	case "latency_p90_us":
		return f.p90 / 1e3, f.latencies
	case "cpu_ns_per_op":
		return float64(f.cpu) / float64(max(f.ops, 1)), f.ops
	case "peak_rss_mb":
		return m.rssMB, 1
	case "ok_share":
		return float64(m.ops-m.failures()) / float64(m.ops), m.ops
	case "f1":
		return m.f1, m.ops
	}
	panic("unknown metric " + name)
}

// mergeLayers takes each per-layer metric from the main pass, or, for a
// layer the workload does not pass through, from the probe that does.
func mergeLayers(o *outcome) (map[string]float64, error) {
	layers := map[string]float64{}
	for k, v := range o.main.layers {
		layers[k] = v
	}
	if _, ok := layers["sim.ns_per_tick"]; !ok && o.setupTr != nil {
		layers["sim.ns_per_tick"] = o.setupTr.perOpNS("sim.run")
	}
	for _, name := range sortedKeys(o.probes) {
		for k, v := range o.probes[name].layers {
			if _, ok := layers[k]; !ok {
				layers[k] = v
			}
		}
	}
	m := o.main
	layers["trace.ops_per_s"] = opsPerS(m)
	layers["trace.overhead_share"] = float64(len(m.tr.spans)) * clockCostNS() / float64(m.wall)
	var missing []string
	for _, s := range layerMetrics {
		if _, ok := layers[s.name]; !ok {
			missing = append(missing, s.name)
		}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("traced run did not measure %s", strings.Join(missing, ", "))
	}
	return layers, nil
}

// writeSpans writes each traced pass's spans to its own file and fills in
// the report's span files and the self time per op of every span name.
// A pass that kept fewer spans than it recorded gets a note, as the self
// times then leave the dropped spans out.
func writeSpans(cfg config, o *outcome, rep *runReport) error {
	dir := filepath.Join(cfg.out, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	passes := map[string]*tracer{"main": o.main.tr, "setup": o.setupTr}
	for name, p := range o.probes {
		passes["probe-"+name] = p.tr
	}
	rep.SelfNSPerOp = map[string]float64{}
	for _, name := range sortedKeys(passes) {
		tr := passes[name]
		if tr == nil {
			continue
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.jsonl", cfg.workload, cfg.seed, name))
		if err := tr.writeFile(path); err != nil {
			return err
		}
		rep.SpanFiles = append(rep.SpanFiles, path)
		if tr.dropped > 0 {
			rep.Notes = append(rep.Notes, fmt.Sprintf("%s pass: %d spans past the %d kept were not stored", name, tr.dropped, maxSpans))
		}
		for span, ns := range tr.selfTimes() {
			if ops := tr.ops[span]; ops > 0 {
				rep.SelfNSPerOp[name+"/"+span] = float64(ns) / float64(ops)
			}
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// revision names the code under test: the git commit when the checkout is
// a repository, otherwise (as in an exported source tree) a digest of
// every Go source and module file.
func revision() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			b, err := os.ReadFile(path)
			if err == nil {
				fmt.Fprintf(h, "%s %d\n", path, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// daemonProcs is the daemon's GOMAXPROCS: 1 when it was started on one
// CPU, else inherited from the environment or the Go default of one per
// CPU.
func daemonProcs(cfg config, pinned bool) string {
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		return v
	}
	if pinned {
		return fmt.Sprintf("1 (client and daemon share one CPU, moving between CPUs %v by round)", cfg.cpus)
	}
	return fmt.Sprintf("%d (default)", runtime.NumCPU())
}
