package machine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"ctcomm/internal/netsim"
)

// TopoSpec is the JSON-serializable form of a topology.
type TopoSpec struct {
	// Type is "torus3d" or "mesh2d".
	Type string `json:"type"`
	// Dims holds the axis sizes: three for torus3d, two for mesh2d.
	Dims []int `json:"dims"`
}

// Spec is the JSON-serializable form of a Machine, for defining custom
// node architectures in configuration files. All embedded configs are
// plain structs and marshal directly; only the topology needs the
// TopoSpec indirection.
type Spec struct {
	Name              string          `json:"name"`
	Mem               json.RawMessage `json:"mem,omitempty"`
	Net               json.RawMessage `json:"net,omitempty"`
	Topo              TopoSpec        `json:"topo"`
	NI                NIConfig        `json:"ni"`
	Deposit           DepositConfig   `json:"deposit"`
	Fetch             FetchConfig     `json:"fetch"`
	CoProcessor       bool            `json:"coProcessor"`
	BusMBps           float64         `json:"busMBps"`
	CoProcPenalty     float64         `json:"coProcPenalty"`
	DefaultCongestion float64         `json:"defaultCongestion"`
	LibOverheadNs     float64         `json:"libOverheadNs"`
	PVMOverheadNs     float64         `json:"pvmOverheadNs"`
}

// buildTopo materializes a TopoSpec.
func buildTopo(t TopoSpec) (netsim.Topology, error) {
	switch t.Type {
	case "torus3d":
		if len(t.Dims) != 3 {
			return nil, fmt.Errorf("machine: torus3d needs 3 dims, got %d", len(t.Dims))
		}
		return netsim.NewTorus3D(t.Dims[0], t.Dims[1], t.Dims[2])
	case "mesh2d":
		if len(t.Dims) != 2 {
			return nil, fmt.Errorf("machine: mesh2d needs 2 dims, got %d", len(t.Dims))
		}
		return netsim.NewMesh2D(t.Dims[0], t.Dims[1])
	default:
		return nil, fmt.Errorf("machine: unknown topology type %q", t.Type)
	}
}

// topoSpecOf reverses buildTopo for the two built-in topologies.
func topoSpecOf(t netsim.Topology) (TopoSpec, error) {
	switch v := t.(type) {
	case netsim.Torus3D:
		return TopoSpec{Type: "torus3d", Dims: []int{v.X, v.Y, v.Z}}, nil
	case netsim.Mesh2D:
		return TopoSpec{Type: "mesh2d", Dims: []int{v.X, v.Y}}, nil
	default:
		return TopoSpec{}, fmt.Errorf("machine: cannot serialize topology %T", t)
	}
}

// MarshalJSON serializes the machine as a Spec document.
func (m *Machine) MarshalJSON() ([]byte, error) {
	topo, err := topoSpecOf(m.Topo)
	if err != nil {
		return nil, err
	}
	mem, err := json.Marshal(m.Mem)
	if err != nil {
		return nil, err
	}
	net, err := json.Marshal(m.Net)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(Spec{
		Name:              m.Name,
		Mem:               mem,
		Net:               net,
		Topo:              topo,
		NI:                m.NI,
		Deposit:           m.Deposit,
		Fetch:             m.Fetch,
		CoProcessor:       m.CoProcessor,
		BusMBps:           m.BusMBps,
		CoProcPenalty:     m.CoProcPenalty,
		DefaultCongestion: m.DefaultCongestion,
		LibOverheadNs:     m.LibOverheadNs,
		PVMOverheadNs:     m.PVMOverheadNs,
	}, "", "  ")
}

// strictUnmarshal decodes JSON rejecting unknown fields, so a typo in a
// hand-written profile (say "hier" under the wrong object) is an error
// rather than a silently dropped constant.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("machine: trailing data after JSON document")
	}
	return nil
}

// UnmarshalJSON deserializes and validates a Spec document. Unknown
// fields anywhere in the document are rejected; unset hierarchy levels
// are defaulted explicitly by validation (Hierarchy.Normalize), so the
// decoded machine re-encodes byte-stably. Every failure is an
// ErrBadSpec — a loaded profile can be reported as a client error but
// can never crash the process.
func (m *Machine) UnmarshalJSON(data []byte) error {
	var s Spec
	if err := strictUnmarshal(data, &s); err != nil {
		return badSpec(err)
	}
	topo, err := buildTopo(s.Topo)
	if err != nil {
		return badSpec(err)
	}
	m.Name = s.Name
	if len(s.Mem) > 0 {
		if err := strictUnmarshal(s.Mem, &m.Mem); err != nil {
			return badSpec(fmt.Errorf("mem: %w", err))
		}
	}
	if len(s.Net) > 0 {
		if err := strictUnmarshal(s.Net, &m.Net); err != nil {
			return badSpec(fmt.Errorf("net: %w", err))
		}
	}
	m.Topo = topo
	m.NI = s.NI
	m.Deposit = s.Deposit
	m.Fetch = s.Fetch
	m.CoProcessor = s.CoProcessor
	m.BusMBps = s.BusMBps
	m.CoProcPenalty = s.CoProcPenalty
	m.DefaultCongestion = s.DefaultCongestion
	m.LibOverheadNs = s.LibOverheadNs
	m.PVMOverheadNs = s.PVMOverheadNs
	return badSpec(m.Validate())
}

// LoadFile reads and validates a machine definition from JSON.
func LoadFile(path string) (*Machine, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Machine
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("machine: %s: %w", path, err)
	}
	return &m, nil
}
