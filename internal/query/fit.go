package query

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"

	"ctcomm/internal/calibrate"
	"ctcomm/internal/machine"
)

// --- Fit: the calibration-fitting query --------------------------------

// FitRequest least-squares fits machine-profile constants from measured
// (size_bytes, rate_MBps) rows, per hierarchy level, and emits a
// loadable profile — mirroring cmd/ctmodel's -fit flag family.
type FitRequest struct {
	// Base is the built-in profile whose structure anchors the fit:
	// framing, copy costs, congestion floors and everything the rows
	// cannot determine come from it. Empty means "t3d".
	Base string `json:"base,omitempty"`
	// Rows are the measurements. Flat bases take untagged rows;
	// hierarchical bases need every row tagged with its tier.
	Rows []calibrate.MeasuredRow `json:"rows"`
	// Name optionally renames the emitted profile; the default keeps the
	// base name so fitted answers diff cleanly against built-in ones.
	Name string `json:"name,omitempty"`

	// M overrides base resolution (cmd/ctmodel -machine-file). CLI-only
	// plumbing: never serialized and excluded from fingerprints, so
	// served fits always name a built-in base.
	M *machine.Machine `json:"-"`
}

// Canon returns the request with defaults applied.
func (r FitRequest) Canon() FitRequest {
	if r.Base == "" {
		r.Base = "t3d"
	}
	return r
}

// Fingerprint canonically keys the request for result caching. The rows
// enter as a digest — measurement sets can be thousands of points, and
// the key must stay bounded.
func (r FitRequest) Fingerprint() string {
	c := r.Canon()
	rows, _ := json.Marshal(c.Rows)
	return fmt.Sprintf("fit|%s|%s|%x",
		strings.ToLower(strings.TrimSpace(c.Base)), c.Name, sha256.Sum256(rows))
}

// FitResponse reports one completed fit. Text is byte-identical to
// cmd/ctmodel's stdout for the same inputs, and Profile is the emitted
// machine JSON exactly as ctmodel -fit-out writes it.
type FitResponse struct {
	Base    string               `json:"base"`
	Name    string               `json:"name"`
	Levels  []calibrate.LevelFit `json:"levels"`
	Profile json.RawMessage      `json:"profile"`
	Text    string               `json:"text"`
}

// UnmarshalJSON decodes a fit answer, restoring the newline that ends
// Profile: JSON encoding compacts a raw message, so without it a decoded
// answer (a warm-loaded cache entry) would differ from the one Fit
// returned.
func (r *FitResponse) UnmarshalJSON(data []byte) error {
	type plain FitResponse
	if err := json.Unmarshal(data, (*plain)(r)); err != nil {
		return err
	}
	if n := len(r.Profile); n > 0 && r.Profile[n-1] != '\n' {
		r.Profile = append(r.Profile, '\n')
	}
	return nil
}

// Fit answers a FitRequest.
func Fit(r FitRequest) (FitResponse, error) {
	resp, _, err := fit(r, nil)
	return resp, err
}

// fit is the single Fit code path. Fit is a point-only kind (no sweep
// axis), so a batch only shares base-profile resolution, and the
// analytic marker is always false.
func fit(r FitRequest, b *Batch) (FitResponse, bool, error) {
	r = r.Canon()
	if len(r.Rows) == 0 {
		return FitResponse{}, false, badf("fit needs measurement rows")
	}
	base := r.M
	if base == nil {
		var err error
		if base, err = b.Machine(r.Base); err != nil {
			return FitResponse{}, false, err
		}
	}
	res, err := calibrate.Fit(base, r.Rows, r.Name)
	if err != nil {
		// Every fit failure is an input problem: bad rows, bad tags, or
		// constants the base profile's structure cannot realize.
		return FitResponse{}, false, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	profile, err := json.Marshal(res.Machine)
	if err != nil {
		return FitResponse{}, false, err
	}

	var text strings.Builder
	fmt.Fprintf(&text, "fitted profile %q (base %s, %d points):\n",
		res.Machine.Name, base.Name, len(r.Rows))
	for _, lf := range res.Levels {
		tag := lf.Level
		if tag == "" {
			tag = "flat"
		}
		fmt.Fprintf(&text, "%-13s startup %10.1f ns   rate %9.2f MB/s   link %9.2f MB/s   max err %.3f%%\n",
			tag+":", lf.StartupNs, lf.RateMBps, lf.LinkMBps, lf.MaxErrPct)
		for _, p := range lf.Points {
			fmt.Fprintf(&text, "    %9.0f B   measured %9.2f   model %9.2f   err %.3f%%\n",
				p.SizeBytes, p.MeasuredMBps, p.ModelMBps, p.ErrPct)
		}
	}

	return FitResponse{
		Base:    base.Name,
		Name:    res.Machine.Name,
		Levels:  res.Levels,
		Profile: append(profile, '\n'),
		Text:    text.String(),
	}, false, nil
}

// fitSize sizes a fit answer for the result cache: its rendered Text
// and Profile JSON dominate, then the per-level constants and points.
func fitSize(v FitResponse) int64 {
	n := int64(len(v.Text) + len(v.Profile) + len(v.Base) + len(v.Name))
	for _, lf := range v.Levels {
		n += int64(64 + len(lf.Level) + 32*len(lf.Points))
	}
	return n
}
