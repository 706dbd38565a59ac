// Command advm-run executes a DSL program file on the adaptive VM through
// the public advm API.
//
// External arrays are declared on the command line:
//
//	-in  name=kind:v1,v2,v3   bind an input array with values
//	-in  name=kind:zeros(N)   bind N zeroed values
//	-in  name=kind:iota(N)    bind 0,1,…,N-1
//	-out name=kind            bind an (initially empty) output array,
//	                          printed after the run
//
// Runs honor -timeout and Ctrl-C: cancellation stops the VM at the next
// chunk boundary.
//
// Example — the paper's Figure 2 program:
//
//	advm-run -in 'some_data=i64:zeros(4096)' -out v=i64 -out w=i64 \
//	         -runs 4 -transitions testdata/figure2.advm
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"repro/advm"
)

type bindFlag struct {
	specs *[]string
}

func (b bindFlag) String() string { return "" }
func (b bindFlag) Set(s string) error {
	*b.specs = append(*b.specs, s)
	return nil
}

func main() {
	var ins, outs []string
	flag.Var(bindFlag{&ins}, "in", "input binding name=kind:values")
	flag.Var(bindFlag{&outs}, "out", "output binding name=kind")
	runs := flag.Int("runs", 1, "number of executions (later runs exercise compiled traces)")
	timeout := flag.Duration("timeout", 0, "abort the whole invocation after this duration (0 = none)")
	hotCalls := flag.Int64("hot-calls", 2, "executions after which a segment counts as hot (0 disables compilation)")
	showTransitions := flag.Bool("transitions", false, "print the VM state-machine log")
	showPlan := flag.Bool("plan", false, "print the final execution plan")
	showProfile := flag.Bool("profile", false, "print per-instruction profile")
	showIR := flag.Bool("ir", false, "print the normalized IR and exit")
	showFingerprint := flag.Bool("fingerprint", false, "print the program's canonical fingerprint (the engine cache key)")
	queryName := flag.String("query", "", "run a named TPC-H query (q1, q3, q6) instead of a DSL program")
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor for -query")
	dataDir := flag.String("data", "", "TPC-H data directory for -query (empty = generate in memory)")
	parallelism := flag.Int("parallelism", 1, "workers for -query")
	explainAnalyze := flag.Bool("explain-analyze", false, "print the EXPLAIN ANALYZE tree of the traced -query run")
	traceJSON := flag.String("trace-json", "", "write the traced -query run as Chrome trace-event JSON to this file")
	flag.Parse()

	if *queryName != "" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		if err := runNamedQuery(ctx, *queryName, *sf, *dataDir, *parallelism, *runs,
			*explainAnalyze, *traceJSON); err != nil {
			fatal(err)
		}
		return
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: advm-run [flags] program.advm")
		flag.PrintDefaults()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	ext := map[string]*advm.Vector{}
	kinds := map[string]advm.Kind{}
	for _, spec := range ins {
		name, v, err := ParseInBinding(spec)
		if err != nil {
			fatal(err)
		}
		ext[name] = v
		kinds[name] = v.Kind()
	}
	var outNames []string
	for _, spec := range outs {
		name, v, err := ParseOutBinding(spec)
		if err != nil {
			fatal(err)
		}
		ext[name] = v
		kinds[name] = v.Kind()
		outNames = append(outNames, name)
	}

	var opts []advm.Option
	if *hotCalls > 0 {
		// Only the call-count trigger: the flag alone decides hotness.
		opts = append(opts, advm.WithHotThresholds(*hotCalls, 0))
	} else {
		opts = append(opts, advm.WithJIT(false))
	}
	// Run through the engine's prepared-statement path: advm-run is the CLI
	// face of the embedding API, and this is the API embedders should reach
	// for first (shared VM, fingerprint-keyed cache).
	eng, err := advm.NewEngine(opts...)
	if err != nil {
		fatal(err)
	}
	defer eng.Close()
	prep, err := eng.Prepare(string(src), kinds)
	if err != nil {
		fatal(err)
	}
	if *showIR {
		fmt.Print(prep.IR())
		return
	}
	if *showFingerprint {
		fmt.Println(prep.Fingerprint())
		return
	}
	sess, err := eng.Session()
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	for r := 0; r < *runs; r++ {
		for _, name := range outNames {
			ext[name].SetLen(0)
		}
		if err := sess.RunPrepared(ctx, prep, ext); err != nil {
			if errors.Is(err, advm.ErrCancelled) {
				fmt.Fprintf(os.Stderr, "advm-run: cancelled during run %d: %v\n", r+1, err)
				os.Exit(130)
			}
			fatal(err)
		}
	}
	for _, name := range outNames {
		fmt.Printf("%s = %s\n", name, ext[name])
	}
	st := prep.Stats()
	if *showTransitions {
		fmt.Println("\nstate machine transitions:")
		for _, tr := range st.Transitions {
			fmt.Printf("  %v\n", tr)
		}
	}
	if *showPlan {
		fmt.Println("\nexecution plan:")
		fmt.Print(prep.PlanReport())
	}
	if *showProfile {
		fmt.Println("\nper-instruction profile:")
		for _, in := range st.Instructions {
			fmt.Printf("  %3d  calls=%-8d tuples=%-10d nanos=%-10d  %s\n",
				in.ID, in.Calls, in.Tuples, in.Nanos, in.Instr)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "advm-run:", err)
	os.Exit(1)
}
