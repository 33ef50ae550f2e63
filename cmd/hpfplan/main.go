// Command hpfplan plays the role the paper assigns to the parallelizing
// compiler (§2.1): given an HPF-style array redistribution or a
// transpose, it derives the communication plan (who sends what to whom,
// with which access patterns), prices the buffer-packing and chained
// implementations on a simulated machine, and recommends one — the
// decision procedure the copy-transfer model was built to support.
//
// Examples:
//
//	hpfplan -machine t3d -n 65536 -p 64 -src BLOCK -dst CYCLIC
//	hpfplan -machine t3d -n 65536 -p 64 -src BLOCK -dst "CYCLIC(8)"
//	hpfplan -machine paragon -transpose 1024 -p 64
//
// Invalid flags (unknown machine or distribution, non-positive sizes or
// processor counts) exit with code 2, matching cmd/experiments'
// convention; execution failures exit 1.
//
// The planning itself lives in internal/query, which the ctserved HTTP
// service shares: a served /v1/plan answer is byte-identical to this
// command's stdout for the same inputs (see TestRunMatchesQuery).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"ctcomm/internal/query"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpfplan:", err)
	}
	os.Exit(code)
}

// run executes the CLI and returns the process exit code: 0 on success,
// 2 for invalid flags, 1 for execution failures.
func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("hpfplan", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		machineFlag = fs.String("machine", "t3d", "machine profile: t3d or paragon")
		nFlag       = fs.Int("n", 65536, "array elements (1D redistribution)")
		pFlag       = fs.Int("p", 64, "processors")
		srcFlag     = fs.String("src", "BLOCK", "source distribution: BLOCK, CYCLIC or CYCLIC(b)")
		dstFlag     = fs.String("dst", "CYCLIC", "destination distribution")
		transFlag   = fs.Int("transpose", 0, "plan an n x n transpose instead (Figure 9)")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}

	// Validate sizes up front with exact messages; query.Plan would
	// catch them too, but only after Canon() has replaced zero values
	// with defaults, and `-n 0` must be an error, not "65536 elements".
	if *nFlag <= 0 {
		return 2, fmt.Errorf("-n must be positive, got %d", *nFlag)
	}
	if *pFlag <= 0 {
		return 2, fmt.Errorf("-p must be positive, got %d", *pFlag)
	}
	if *transFlag < 0 {
		return 2, fmt.Errorf("-transpose must be positive, got %d", *transFlag)
	}
	// Well-formed flags with no plan: a transpose the processors do not
	// divide is an execution failure here, though query.Plan rejects it
	// as a bad request.
	if *transFlag > 0 && *transFlag%*pFlag != 0 {
		return 1, fmt.Errorf("-p %d does not divide -transpose %d", *pFlag, *transFlag)
	}

	resp, err := query.Plan(query.PlanRequest{
		Machine:   *machineFlag,
		N:         *nFlag,
		P:         *pFlag,
		Src:       *srcFlag,
		Dst:       *dstFlag,
		Transpose: *transFlag,
	})
	if err != nil {
		if errors.Is(err, query.ErrBadRequest) {
			return 2, err
		}
		return 1, err
	}
	if _, err := io.WriteString(out, resp.Text); err != nil {
		return 1, err
	}
	return 0, nil
}
