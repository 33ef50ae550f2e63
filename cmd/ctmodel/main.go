// Command ctmodel evaluates copy-transfer expressions against a rate
// table, reproducing the paper's model estimates from the command line.
//
// Examples:
//
//	ctmodel -machine t3d -expr "wC1 o (1S0 || Nd || 0D1) o 1Cw"
//	ctmodel -machine paragon -rates calibrated -op 1Q64
//	ctmodel -machine t3d -op wQw -congestion 4
//	ctmodel -machine t3d -rates paper -list
//	ctmodel -sweep spec.json -format csv
//	ctmodel -machine cluster -rates calibrated -op 1Q64 -level intra-socket
//	ctmodel -machine xe6 -fit measured.csv -fit-out fitted.json
//	ctmodel -machine t3d -collective all-to-all -words 1024
//	ctmodel -machine cluster -collective shift -offset 5 -strategy hyper-systolic -level inter-socket
//
// With -op xQy both the buffer-packing and chained estimates of the
// communication operation are printed; with -expr a single expression
// is evaluated; -list prints the rate table itself. With -sweep a JSON
// grid spec ("-" for stdin) expands to a batch of queries executed
// concurrently (-j bounds the parallelism), rendered as a table in the
// -format of choice (text, csv or markdown). Sweeps run through a
// shared batch context (machines resolved once, rate tables built
// once, element-count axes answered by bitwise-verified closed-form
// laws); -sweep-engine disables it and evaluates every cell as an
// independent engine run — identical output, much slower.
//
// Hierarchical profiles (cluster, xe6) model three communication tiers
// — intra-socket, inter-socket, inter-node; -level selects which tier's
// link a calibrated evaluation uses. -fit runs the other direction:
// given measured (size_bytes, rate_MBps) rows in JSON or CSV ("-" for
// stdin), it least-squares fits startup and bandwidth constants per
// tier onto the -machine base profile, prints a per-point error report,
// and with -fit-out writes the fitted profile as loadable machine JSON.
//
// -collective plans a collective operation (all-to-all, broadcast,
// shift, reduce) as phase schedules of copy-transfer primitives and
// evaluates planner strategies on the -machine: -strategy picks one
// (pairwise, doubling, hyper-systolic), empty compares all three and
// reports the winner; -nodes bounds the participants, -words sets the
// block size, -offset the shift distance, and -level restricts the
// collective to one hierarchy tier.
//
// The evaluation itself lives in internal/query, which the ctserved
// HTTP service shares: a served /v1/eval answer is byte-identical to
// this command's stdout for the same inputs (see TestRunMatchesQuery),
// and a /v1/sweep cell is the same answer a -sweep cell renders.
//
// Exit codes: 0 success, 1 execution failure, 2 usage error (bad
// flags, malformed spec, unknown machine or rate table).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"ctcomm/internal/calibrate"
	"ctcomm/internal/machine"
	"ctcomm/internal/query"
	"ctcomm/internal/sweep"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ctmodel:", err)
	}
	if code != 0 {
		os.Exit(code)
	}
}

// run executes one invocation and returns the process exit code: 0 on
// success, 2 for usage errors (flag mistakes and query.ErrBadRequest),
// 1 for execution failures.
func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("ctmodel", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		machineFlag  = fs.String("machine", "t3d", "machine profile: t3d, paragon, cluster or xe6")
		machineFile  = fs.String("machine-file", "", "JSON machine definition (overrides -machine)")
		ratesFlag    = fs.String("rates", "paper", "rate table: paper or calibrated")
		exprFlag     = fs.String("expr", "", "copy-transfer expression to evaluate")
		opFlag       = fs.String("op", "", "communication operation xQy, e.g. 1Q64 or wQw")
		congFlag     = fs.Float64("congestion", 0, "network congestion factor (0 = machine default)")
		levelFlag    = fs.String("level", "", "hierarchy level for calibrated rates: intra-socket, inter-socket or inter-node")
		listFlag     = fs.Bool("list", false, "print the rate table and exit")
		fitFlag      = fs.String("fit", "", `measured (size_bytes, rate_MBps) rows to fit, JSON or CSV ("-" for stdin)`)
		fitOutFlag   = fs.String("fit-out", "", "write the fitted machine profile JSON to this file")
		nameFlag     = fs.String("name", "", "name for the fitted profile (default: keep the base machine's name)")
		collFlag     = fs.String("collective", "", "collective operation to plan: all-to-all, broadcast, shift or reduce")
		strategyFlag = fs.String("strategy", "", "planner strategy: pairwise, doubling or hyper-systolic (empty = compare all)")
		nodesFlag    = fs.Int("nodes", 0, "collective participants (0 = whole machine or -level domain)")
		wordsFlag    = fs.Int("words", 0, "collective block size in 64-bit words (0 = 256)")
		offsetFlag   = fs.Int("offset", 0, "shift distance for -collective shift (0 = 1)")
		sweepFlag    = fs.String("sweep", "", `JSON sweep spec file ("-" for stdin)`)
		formatFlag   = fs.String("format", "text", "sweep output format: text, csv or markdown")
		jFlag        = fs.Int("j", 0, "sweep parallelism (0 = GOMAXPROCS)")
		engineFlag   = fs.Bool("sweep-engine", false,
			"evaluate every sweep cell as an independent engine run (disables the shared batch context; same output, slower)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, nil
		}
		return 2, nil // the FlagSet already printed the message + usage
	}

	if *sweepFlag != "" {
		return runSweep(*sweepFlag, *formatFlag, *jFlag, *engineFlag, out)
	}

	var loaded *machine.Machine
	if *machineFile != "" {
		m, err := machine.LoadFile(*machineFile)
		if err != nil {
			return 1, err
		}
		loaded = m
	}

	if *fitFlag != "" {
		return runFit(*fitFlag, *machineFlag, *nameFlag, *fitOutFlag, loaded, out)
	}

	if *collFlag != "" {
		resp, err := query.Collective(query.CollectiveRequest{
			Machine:    *machineFlag,
			Collective: *collFlag,
			Strategy:   *strategyFlag,
			Nodes:      *nodesFlag,
			Words:      *wordsFlag,
			Offset:     *offsetFlag,
			Level:      *levelFlag,
			M:          loaded,
		})
		return emit(resp.Text, err, out)
	}

	req := query.EvalRequest{
		Machine:    *machineFlag,
		Rates:      *ratesFlag,
		Expr:       *exprFlag,
		Op:         *opFlag,
		List:       *listFlag,
		Congestion: *congFlag,
		Level:      *levelFlag,
		M:          loaded,
	}
	if !req.List && req.Expr == "" && req.Op == "" {
		fs.Usage()
		return 2, fmt.Errorf("one of -expr, -op, -list or -sweep is required")
	}

	resp, err := query.Eval(req)
	return emit(resp.Text, err, out)
}

// emit is the shared tail of every query: it maps err to the exit code
// (2 for query.ErrBadRequest, 1 otherwise), or writes text — a point
// answer's Text, byte-identical to the served answer's.
func emit(text string, err error, out io.Writer) (int, error) {
	if err != nil {
		if errors.Is(err, query.ErrBadRequest) {
			return 2, err
		}
		return 1, err
	}
	if _, err := io.WriteString(out, text); err != nil {
		return 1, err
	}
	return 0, nil
}

// runFit executes a -fit invocation: parse the measured rows, fit them
// onto the base profile via internal/query (so stdout is byte-identical
// to a served /v1/fit answer's Text), and optionally write the fitted
// profile JSON.
func runFit(rowsPath, base, name, outPath string, loaded *machine.Machine, out io.Writer) (int, error) {
	var data []byte
	var err error
	if rowsPath == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(rowsPath)
	}
	if err != nil {
		return 1, err
	}
	rows, err := calibrate.ParseRows(data)
	if err != nil {
		return 2, fmt.Errorf("%w: %v", query.ErrBadRequest, err)
	}

	resp, err := query.Fit(query.FitRequest{Base: base, Rows: rows, Name: name, M: loaded})
	if code, err := emit(resp.Text, err, out); code != 0 {
		return code, err
	}
	if outPath != "" {
		if err := os.WriteFile(outPath, resp.Profile, 0o644); err != nil {
			return 1, err
		}
		fmt.Fprintf(out, "wrote %s\n", outPath)
	}
	return 0, nil
}

// runSweep executes a -sweep invocation: parse the spec, run the grid
// through the shared sweep engine, render via internal/table. engine
// disables the batch context (-sweep-engine), forcing per-cell point
// evaluation — the reference the batch path is differentially tested
// against.
func runSweep(specPath, format string, workers int, engine bool, out io.Writer) (int, error) {
	if workers < 0 {
		return 2, fmt.Errorf("-j must be non-negative, got %d", workers)
	}
	var src io.Reader
	if specPath == "-" {
		src = os.Stdin
	} else {
		f, err := os.Open(specPath)
		if err != nil {
			return 1, err
		}
		defer f.Close()
		src = f
	}
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	var spec sweep.Spec
	if err := dec.Decode(&spec); err != nil {
		return 2, fmt.Errorf("%w: invalid sweep spec: %v", query.ErrBadRequest, err)
	}

	var rows []sweep.Row
	stats, err := sweep.Execute(context.Background(), spec, sweep.Options{Workers: workers, Engine: engine},
		func(r sweep.Row) error {
			rows = append(rows, r)
			return nil
		})
	if err != nil {
		return emit("", err, out)
	}

	t := sweep.Table(spec, rows, stats)
	switch format {
	case "text", "":
		err = t.Render(out)
	case "csv":
		err = t.CSV(out)
	case "markdown", "md":
		err = t.Markdown(out)
	default:
		return 2, fmt.Errorf("unknown -format %q (want text, csv or markdown)", format)
	}
	if err != nil {
		return 1, err
	}
	return 0, nil
}
