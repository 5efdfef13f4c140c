// Command bench is the repository's reference benchmark: seven named
// campaign workloads, measured from outside through the public API, with
// the metric names BENCHMARK.json lists. See README.md in this directory.
//
//	go run ./bench                                  every workload, both passes, one table
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//	                                                one run; its last stdout line is the result
//	go run ./bench -compare a.json b.json           two result files, metric by metric
//	go run ./bench -pin                             re-record bench/expected.json (seed 1)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
)

// outDir holds everything a run leaves behind: trace files, result files
// and (while running) scratch caches and registries. It is relative to the
// repository root, where the benchmark is run from.
const outDir = "bench/out"

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := realMain(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func realMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this one workload in this process (default: every workload, each in a child process)")
	seed := fs.Int64("seed", 1, "workload seed; reaches the program only as WithSeed/\"seed\" values")
	secs := fs.Float64("seconds", 10, "how long one run measures")
	trace := fs.Int("trace", 0, "1 = the traced per-layer pass, 0 = the untraced end-to-end pass (one run); without -workload both passes run")
	runs := fs.Int("runs", 1, "without -workload: complete sets of runs, set i at seed+i")
	out := fs.String("out", filepath.Join(outDir, "results.json"), "without -workload: where the rows are written")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	pin := fs.Bool("pin", false, "record the seed-1 reports of every workload (or -workload) in "+expectedPath)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare wants two result files"))
		}
		regressed, err := compareFiles(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	case *pin:
		for i := range workloads {
			if w := &workloads[i]; *name == "" || *name == w.Name {
				if err := pinWorkload(ctx, w, runOpts{seed: 1, outDir: outDir}); err != nil {
					return fail(fmt.Errorf("%s: %w", w.Name, err))
				}
				fmt.Fprintf(stdout, "pinned %s\n", w.Name)
			}
		}
		return 0
	case *name != "":
		w, err := findWorkload(*name)
		if err != nil {
			return fail(err)
		}
		res, err := run(ctx, w, runOpts{seed: *seed, seconds: *secs, trace: *trace != 0, outDir: outDir}, stdout)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.Name, err))
		}
		line, err := json.Marshal(res) // encoding/json sorts the metric names
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
		return 0
	}

	// Every workload, in table order, each run in its own child process.
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	file := resultFile{Host: thisHost()}
	failed := false
	for set := 0; set < *runs; set++ {
		for _, w := range workloads {
			for _, traced := range []int{0, 1} {
				fmt.Fprintf(stdout, "== %s seed %d trace %d\n", w.Name, *seed+int64(set), traced)
				cmd := exec.CommandContext(ctx, self,
					"-workload", w.Name, "-seed", strconv.FormatInt(*seed+int64(set), 10),
					"-seconds", strconv.FormatFloat(*secs, 'g', -1, 64), "-trace", strconv.Itoa(traced))
				cmd.Stderr = stderr
				raw, err := cmd.Output()
				if err != nil {
					stdout.Write(raw)
					return fail(fmt.Errorf("%s: %w", w.Name, err))
				}
				text := strings.TrimSpace(string(raw))
				last := strings.LastIndexByte(text, '\n') + 1
				fmt.Fprintln(stdout, text[:last])
				var res result
				if err := json.Unmarshal([]byte(text[last:]), &res); err != nil {
					return fail(fmt.Errorf("%s: result line: %w", w.Name, err))
				}
				if !res.Correct || res.Failed > 0 {
					failed = true
					fmt.Fprintf(stdout, "FAILED: %d of %d campaigns\n", res.Failed, res.Attempted)
				}
				file.Rows = append(file.Rows, row{
					Workload: w.Name, Seed: *seed + int64(set), Trace: traced,
					Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics,
				})
			}
		}
	}
	if err := file.write(*out); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "rows written to %s (nproc %d, GOMAXPROCS %d, %s)\n", *out, file.Host.NProc, file.Host.GOMAXPROCS, file.Host.GoVersion)
	if failed {
		return fail(fmt.Errorf("failed_share > 0"))
	}
	return 0
}

// pinWorkload runs every fault list of w once at seed 1 and records the
// reports as the workload's pins. Service workloads must already agree
// with their library reference.
func pinWorkload(ctx context.Context, w *workload, o runOpts) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	orc := newOracle(w.Lists)
	if err := pinReferences(ctx, w, o, orc); err != nil {
		return err
	}
	e, err := setUp(ctx, w, o)
	if err != nil {
		return err
	}
	defer e.close()
	for list := 0; list < w.Lists; list++ {
		if res := verified(ctx, e, orc, list, nil); res.err != nil {
			return res.err
		}
	}
	return writeExpected(w.Name, orc.want)
}
