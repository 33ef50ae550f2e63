package machine

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestJSONRoundTripProfiles(t *testing.T) {
	for _, m := range Profiles() {
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		var back Machine
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if back.Name != m.Name || back.Nodes() != m.Nodes() {
			t.Errorf("%s: identity lost: %s/%d", m.Name, back.Name, back.Nodes())
		}
		if back.Mem != m.Mem {
			t.Errorf("%s: memory config changed", m.Name)
		}
		if back.Net != m.Net {
			t.Errorf("%s: network config changed", m.Name)
		}
		if back.Deposit != m.Deposit || back.Fetch != m.Fetch || back.NI != m.NI {
			t.Errorf("%s: engine configs changed", m.Name)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "custom.json")
	m := T3D()
	m.Name = "Custom T3D"
	m.Deposit.MinUnitWords = 4
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, path, string(data))
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "Custom T3D" || back.Deposit.MinUnitWords != 4 {
		t.Errorf("custom fields lost: %+v", back.Deposit)
	}
}

func TestLoadFileRejectsInvalid(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	writeFile(t, bad, `{"name":"x","topo":{"type":"torus3d","dims":[4,4,4]},"busMBps":-1}`)
	if _, err := LoadFile(bad); err == nil {
		t.Error("invalid machine should fail validation")
	}
	badTopo := filepath.Join(dir, "topo.json")
	writeFile(t, badTopo, `{"name":"x","topo":{"type":"ring","dims":[4]}}`)
	if _, err := LoadFile(badTopo); err == nil {
		t.Error("unknown topology should fail")
	}
	wrongDims := filepath.Join(dir, "dims.json")
	writeFile(t, wrongDims, `{"name":"x","topo":{"type":"mesh2d","dims":[4]}}`)
	if _, err := LoadFile(wrongDims); err == nil {
		t.Error("wrong dim count should fail")
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file should fail")
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := writeFileRaw(path, content); err != nil {
		t.Fatal(err)
	}
}

func writeFileRaw(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
