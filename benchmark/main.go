// Command benchmark is the repo's fixed yardstick: five seeded workloads over
// the public advm API and advm-serve, every result checked against a
// reference that does not come from the engine, reported as the end-to-end
// metrics a user feels plus per-layer numbers from a traced run. README.md
// in this directory is the manual; BENCHMARK.json at the repo root is the
// contract the driver reads.
//
// The driver's form runs one workload and prints one JSON result line last:
//
//	bash benchmark/run.sh --workload scan_ram --seed 1 --seconds 15 --trace 0
//
// Without --workload it runs all five (each in its own child process) and
// prints every metric by name:
//
//	bash benchmark/run.sh [--trace 1] [-repeat 2] [-sanity] [-corrupt-ref]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the measured window.
const defaultSeconds = 15

// metricValue is one metric of a result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a workload run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var cfg runConfig
	var seconds, trace, repeat int
	var sanity bool
	flag.StringVar(&cfg.workload, "workload", "", "run this one workload in this process and end with a JSON result line")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the TPC-H data, the parameter pools and the op schedule")
	flag.IntVar(&seconds, "seconds", defaultSeconds, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1: traced run (spans, layer probes, per-layer metrics); with all workloads, after the end-to-end run of each")
	flag.StringVar(&cfg.outDir, "out", "out", "directory for trace files and temp data")
	flag.BoolVar(&cfg.corruptRef, "corrupt-ref", false, "perturb one reference answer per workload; the run must fail")
	flag.BoolVar(&cfg.noPruning, "no-pruning", false, "sensitivity flip: WithScanPruning(false)")
	flag.BoolVar(&cfg.noTiered, "no-tiered", false, "sensitivity flip: WithTieredExecution(false)")
	flag.BoolVar(&cfg.noJIT, "no-jit", false, "sensitivity flip: WithJIT(false)")
	flag.IntVar(&repeat, "repeat", 1, "all-workloads form: run this many full sets and compare them")
	flag.BoolVar(&sanity, "sanity", false, "all-workloads form: check that option flips move the predicted workload only")
	flag.Parse()
	endToEndOnly := sanity || repeat > 1 // these modes compare end-to-end metrics
	if flag.NArg() > 0 || seconds < 1 || repeat < 1 || trace < 0 || trace > 1 || (trace == 1 && endToEndOnly) {
		flag.Usage()
		os.Exit(2)
	}
	cfg.window = time.Duration(seconds) * time.Second
	cfg.traced = trace == 1

	if cfg.workload != "" {
		os.Exit(runOne(&cfg))
	}
	o := &orchestrator{cfg: cfg, seconds: seconds}
	switch {
	case sanity:
		os.Exit(o.sanity())
	case repeat > 1:
		os.Exit(o.repeat(repeat))
	default:
		os.Exit(o.all(cfg.traced))
	}
}

// runOne runs one workload in this process: metrics by name on the way, the
// JSON result line last. A run that could not measure exits 2 without a
// result line; a run with failed ops prints it with correct=false and exits 1.
func runOne(cfg *runConfig) int {
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", cfg.workload, err)
		return 2
	}
	specs := endToEnd
	if cfg.traced {
		specs = perLayer
	}
	line := resultLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	fmt.Printf("workload %s seed %d: %d ops attempted, %d failed, %d measured in the window\n",
		cfg.workload, cfg.seed, res.attempted, res.failed, res.measured)
	for _, s := range specs {
		v := res.metrics[s.Name]
		line.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
		fmt.Printf("  %-38s %14.4f %s\n", s.Name, v, s.Unit)
	}
	if res.firstErr != nil {
		fmt.Printf("  first failed op: %v\n", res.firstErr)
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	fmt.Println(string(out))
	if res.failed > 0 {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------------
// The all-workloads forms. Every workload run is a child process of this
// binary, so heaps, caches and the RSS high-water mark of one workload
// never leak into the next.

type orchestrator struct {
	cfg     runConfig
	seconds int
}

// child runs one workload in a child process and parses its result line.
func (o *orchestrator) child(workload string, trace int, extra ...string) (*resultLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", workload, "-seed", fmt.Sprint(o.cfg.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(trace), "-out", o.cfg.outDir}
	if o.cfg.corruptRef {
		args = append(args, "-corrupt-ref")
	}
	cmd := exec.Command(exe, append(args, extra...)...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, fmt.Errorf("%s: no result line: %w", workload, err)
	}
	return &line, nil
}

// printTable prints one metric per row, one workload per column, in spec
// order.
func printTable(specs []metricSpec, byWorkload map[string]*resultLine) {
	fmt.Printf("%-38s %-6s", "metric", "unit")
	for _, w := range workloadNames {
		fmt.Printf(" %14s", w)
	}
	fmt.Println()
	for _, s := range specs {
		fmt.Printf("%-38s %-6s", s.Name, s.Unit)
		for _, w := range workloadNames {
			if l := byWorkload[w]; l != nil {
				fmt.Printf(" %14.4f", l.Metrics[s.Name].Value)
			} else {
				fmt.Printf(" %14s", "-")
			}
		}
		fmt.Println()
	}
}

// all runs one full set (and the traced set when asked), prints every metric
// by name and ends with the JSON summary.
func (o *orchestrator) all(traced bool) int {
	code := 0
	e2e, layer := map[string]*resultLine{}, map[string]*resultLine{}
	for _, w := range workloadNames {
		line, err := o.child(w, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			code = 1
			continue
		}
		e2e[w] = line
		fmt.Printf("%-12s attempted %6d  failed %4d  fail_ratio %.6f\n", w, line.Attempted, line.Failed,
			float64(line.Failed)/float64(max(line.Attempted, 1)))
		if !line.Correct {
			code = 1
		}
		if traced {
			if layer[w], err = o.child(w, 1); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				code = 1
			}
		}
	}
	printTable(endToEnd, e2e)
	if traced {
		fmt.Println()
		printTable(perLayer, layer)
		fmt.Printf("\ntraces: %s/trace-<workload>.json\n", o.cfg.outDir)
	}
	summary, err := json.MarshalIndent(struct {
		Seed      int64                  `json:"seed"`
		Seconds   int                    `json:"seconds"`
		Workloads map[string]*resultLine `json:"workloads"`
		Layers    map[string]*resultLine `json:"layers,omitempty"`
		Claim     any                    `json:"claim"`
	}{o.cfg.seed, o.seconds, e2e, layer, nil}, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(summary))
	return code
}

// repeat runs n full sets back to back, alternating the workload order, and
// prints for every metric × workload the spread of the sets beside the
// metric's bound. A spread beyond the bound means the benchmark cannot
// resolve a change of that size there: the pair is reported as unresolved —
// not as unchanged — and the command fails.
func (o *orchestrator) repeat(n int) int {
	sets := make([]map[string]*resultLine, n)
	for i := range sets {
		sets[i] = map[string]*resultLine{}
		order := append([]string(nil), workloadNames...)
		if i%2 == 1 {
			for l, r := 0, len(order)-1; l < r; l, r = l+1, r-1 {
				order[l], order[r] = order[r], order[l]
			}
		}
		for _, w := range order {
			line, err := o.child(w, 0)
			if err != nil || !line.Correct {
				fmt.Fprintf(os.Stderr, "benchmark: set %d: %s failed: %v\n", i+1, w, err)
				return 1
			}
			sets[i][w] = line
		}
	}
	code := 0
	fmt.Printf("%-12s %-12s %12s %12s %9s %7s  %s\n", "workload", "metric", "min", "max", "spread", "bound", "verdict")
	for _, w := range workloadNames {
		for _, s := range endToEnd {
			var vals []float64
			for _, set := range sets {
				vals = append(vals, set[w].Metrics[s.Name].Value)
			}
			lo, hi := quantile(vals, 0), quantile(vals, 1)
			spread := ratio(hi-lo, median(vals))
			verdict := "within bound"
			if spread > s.Bound {
				verdict, code = "UNRESOLVED", 1
			}
			fmt.Printf("%-12s %-12s %12.4f %12.4f %8.2f%% %6.0f%%  %s\n", w, s.Name, lo, hi, 100*spread, 100*s.Bound, verdict)
		}
	}
	return code
}

// sanity shows the mechanism/bypass pairs instead of asserting them: each
// public option flip must move its metric beyond the metric's bound on the
// workload that exercises the mechanism and leave it within bound on the
// bypass workload. The pruning and tiering flips worsen p50_ms. The JIT flip
// is judged on p95_ms, which it moves the other way: with WithJIT(false) the
// cold programs of vm_programs stop paying the modeled compile latency they
// can never win back (README.md, "Sensitivity").
func (o *orchestrator) sanity() int {
	type flip struct {
		flag, metric string
		moves, stays string
	}
	flips := []flip{
		{"-no-pruning", "p50_ms", "scan_disk", "join_agg"},
		{"-no-tiered", "p50_ms", "scan_ram", "vm_programs"},
		{"-no-jit", "p95_ms", "vm_programs", "scan_ram"},
	}
	base := map[string]*resultLine{}
	run := func(w string, extra ...string) *resultLine {
		line, err := o.child(w, 0, extra...)
		if err != nil || !line.Correct {
			fmt.Fprintf(os.Stderr, "benchmark: sanity: %s %v failed: %v\n", w, extra, err)
			return nil
		}
		return line
	}
	code := 0
	fmt.Printf("%-12s %-12s %-8s %12s %12s %9s  %s\n", "flip", "workload", "metric", "base", "flipped", "change", "verdict")
	for _, f := range flips {
		for _, w := range []string{f.moves, f.stays} {
			if base[w] == nil {
				if base[w] = run(w); base[w] == nil {
					return 1
				}
			}
			line := run(w, f.flag)
			if line == nil {
				return 1
			}
			was, is := base[w].Metrics[f.metric].Value, line.Metrics[f.metric].Value
			change := ratio(is-was, was)
			moved := math.Abs(change) > boundOf(f.metric)
			verdict := "ok: stays within bound"
			switch {
			case w == f.moves && moved:
				verdict = "ok: moves beyond bound"
			case w == f.moves:
				verdict, code = "FAIL: should move beyond bound", 1
			case moved:
				verdict, code = "FAIL: bypass workload moved", 1
			}
			fmt.Printf("%-12s %-12s %-8s %12.4f %12.4f %+8.1f%%  %s\n", f.flag, w, f.metric, was, is, 100*change, verdict)
		}
	}
	return code
}
