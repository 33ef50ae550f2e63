package calibrate

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"ctcomm/internal/machine"
	"ctcomm/internal/netsim"
)

// TestFitRecoversFlatProfile round-trips the T3D: synthetic
// measurements generated from the profile must fit back to its exact
// constants with (essentially) zero per-point error.
func TestFitRecoversFlatProfile(t *testing.T) {
	base := machine.T3D()
	rows := Synthesize(base, nil)
	res, err := Fit(base, rows, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Machine.Net.LinkMBps; got != base.Net.LinkMBps {
		t.Errorf("LinkMBps: fitted %v, want %v", got, base.Net.LinkMBps)
	}
	if got := res.Machine.LibOverheadNs; got != base.LibOverheadNs {
		t.Errorf("LibOverheadNs: fitted %v, want %v", got, base.LibOverheadNs)
	}
	if len(res.Levels) != 1 || res.Levels[0].Level != "" {
		t.Fatalf("flat fit should report one untagged level, got %+v", res.Levels)
	}
	for _, p := range res.Levels[0].Points {
		if p.ErrPct > 2 {
			t.Errorf("point %g B: err %g%% exceeds 2%%", p.SizeBytes, p.ErrPct)
		}
	}
	if res.Machine.Name != base.Name {
		t.Errorf("default fit name %q should keep base name %q", res.Machine.Name, base.Name)
	}
}

// TestFitRecoversHierarchicalProfiles round-trips both modern profiles
// tier by tier.
func TestFitRecoversHierarchicalProfiles(t *testing.T) {
	for _, base := range []*machine.Machine{machine.MulticoreCluster(), machine.CrayXE6()} {
		rows := Synthesize(base, nil)
		res, err := Fit(base, rows, "")
		if err != nil {
			t.Fatalf("%s: %v", base.Name, err)
		}
		if len(res.Levels) != 3 {
			t.Fatalf("%s: want 3 fitted levels, got %d", base.Name, len(res.Levels))
		}
		for _, l := range netsim.Levels() {
			want := base.Net.Hier.Level(l)
			got := res.Machine.Net.Hier.Level(l)
			if got.LinkMBps != want.LinkMBps {
				t.Errorf("%s %s: LinkMBps fitted %v, want %v", base.Name, l, got.LinkMBps, want.LinkMBps)
			}
			if got.StartupNs != want.StartupNs {
				t.Errorf("%s %s: StartupNs fitted %v, want %v", base.Name, l, got.StartupNs, want.StartupNs)
			}
		}
		if res.Machine.Net.LinkMBps != base.Net.LinkMBps {
			t.Errorf("%s: flat LinkMBps should mirror the inter-node tier", base.Name)
		}
		for _, lf := range res.Levels {
			if lf.MaxErrPct > 2 {
				t.Errorf("%s %s: max err %g%% exceeds 2%%", base.Name, lf.Level, lf.MaxErrPct)
			}
		}
	}
}

// TestFitNoisyRows checks the fit degrades gracefully on noisy input:
// constants land near truth and the error report is honest.
func TestFitNoisyRows(t *testing.T) {
	base := machine.T3D()
	rows := Synthesize(base, nil)
	// Deterministic +/-1% alternating "noise".
	for i := range rows {
		if i%2 == 0 {
			rows[i].RateMBps *= 1.01
		} else {
			rows[i].RateMBps *= 0.99
		}
	}
	res, err := Fit(base, rows, "noisy")
	if err != nil {
		t.Fatal(err)
	}
	if res.Machine.Name != "noisy" {
		t.Errorf("name override not applied: %q", res.Machine.Name)
	}
	if rel := math.Abs(res.Machine.Net.LinkMBps-base.Net.LinkMBps) / base.Net.LinkMBps; rel > 0.05 {
		t.Errorf("noisy fit link %v too far from %v", res.Machine.Net.LinkMBps, base.Net.LinkMBps)
	}
	if res.Levels[0].MaxErrPct <= 0 || res.Levels[0].MaxErrPct > 5 {
		t.Errorf("noisy fit should report a small nonzero max err, got %g%%", res.Levels[0].MaxErrPct)
	}
}

func TestFitInputValidation(t *testing.T) {
	flat := machine.T3D()
	hier := machine.CrayXE6()
	cases := []struct {
		name string
		base *machine.Machine
		rows []MeasuredRow
		want string
	}{
		{"no rows", flat, nil, "no measurement rows"},
		{"one size", flat, []MeasuredRow{{SizeBytes: 1024, RateMBps: 100}, {SizeBytes: 1024, RateMBps: 101}}, "2 distinct sizes"},
		{"negative rate", flat, []MeasuredRow{{SizeBytes: 1024, RateMBps: -1}, {SizeBytes: 2048, RateMBps: 100}}, "positive"},
		{"tag on flat", flat, []MeasuredRow{{SizeBytes: 1024, RateMBps: 90, Level: "inter-node"}, {SizeBytes: 2048, RateMBps: 100}}, "flat"},
		{"untagged on hier", hier, []MeasuredRow{{SizeBytes: 1024, RateMBps: 90}, {SizeBytes: 2048, RateMBps: 100}}, "level tag"},
		{"bad tag", hier, []MeasuredRow{{SizeBytes: 1024, RateMBps: 90, Level: "rack"}, {SizeBytes: 2048, RateMBps: 100, Level: "rack"}}, "unknown hierarchy level"},
	}
	for _, c := range cases {
		_, err := Fit(c.base, c.rows, "")
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: want error containing %q, got %v", c.name, c.want, err)
		}
	}
}

func TestParseRowsFormats(t *testing.T) {
	jsonArr := `[{"size_bytes":1024,"rate_MBps":80.5},{"size_bytes":65536,"rate_MBps":140,"level":"inter-node"}]`
	jsonObj := `{"rows":[{"size_bytes":1024,"rate_MBps":80.5}]}`
	csvHdr := "size_bytes,rate_MBps,level\n1024,80.5,inter-node\n65536,140,\n"
	csvBare := "1024,80.5\n65536,140"

	rows, err := ParseRows([]byte(jsonArr))
	if err != nil || len(rows) != 2 || rows[1].Level != "inter-node" {
		t.Errorf("json array: %v %+v", err, rows)
	}
	rows, err = ParseRows([]byte(jsonObj))
	if err != nil || len(rows) != 1 || rows[0].RateMBps != 80.5 {
		t.Errorf("json object: %v %+v", err, rows)
	}
	rows, err = ParseRows([]byte(csvHdr))
	if err != nil || len(rows) != 2 || rows[0].Level != "inter-node" {
		t.Errorf("csv with header: %v %+v", err, rows)
	}
	rows, err = ParseRows([]byte(csvBare))
	if err != nil || len(rows) != 2 || rows[1].SizeBytes != 65536 {
		t.Errorf("headerless csv: %v %+v", err, rows)
	}
	if _, err := ParseRows([]byte("   ")); err == nil {
		t.Error("blank input should fail")
	}
	if _, err := ParseRows([]byte("a,b\nc,d\n")); err == nil {
		t.Error("non-numeric csv body should fail")
	}
}

// TestFittedProfileRoundTripsJSON saves the fitted profile and loads it
// back: the loaded machine must answer RateAt identically.
func TestFittedProfileRoundTripsJSON(t *testing.T) {
	base := machine.CrayXE6()
	res, err := Fit(base, Synthesize(base, nil), "")
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/fitted.json"
	data, err := json.Marshal(res.Machine)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := machine.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range netsim.Levels() {
		for _, mode := range []netsim.Mode{netsim.DataOnly, netsim.AddrData} {
			for _, cong := range []float64{1, 2, 4} {
				if got, want := loaded.Net.RateAt(l, mode, cong), base.Net.RateAt(l, mode, cong); got != want {
					t.Fatalf("loaded fitted profile: RateAt(%s,%s,%g) = %v, want %v", l, mode, cong, got, want)
				}
			}
		}
	}
}

func BenchmarkFit(b *testing.B) {
	base := machine.CrayXE6()
	rows := Synthesize(base, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(base, rows, ""); err != nil {
			b.Fatal(err)
		}
	}
}
