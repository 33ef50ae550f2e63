// Package netsim models the interconnection network of a message-passing
// parallel computer: topology, dimension-order routing, per-link
// congestion, and the two framing modes of the copy-transfer model —
// data-only transfers (Nd) and address-data-pair transfers (Nadp)
// (Stricker/Gross, ISCA 1995, §3.2, §4.3).
//
// Both modeled machines use "a simple mesh topology with fast links": a
// 3D torus on the Cray T3D and a 2D mesh on the Intel Paragon. Network
// congestion is mostly absent from the paper's model, with two quirks the
// package reproduces: on the T3D two adjacent nodes share one network
// port (minimum congestion of two), and unfortunate Paragon aspect ratios
// can congest some patterns.
package netsim

import "fmt"

// Topology describes a point-to-point interconnect. Links are directed
// and identified by dense integer ids in [0, Links()).
type Topology interface {
	// Name identifies the topology, e.g. "torus-2x8x8".
	Name() string
	// Nodes returns the number of compute nodes.
	Nodes() int
	// Links returns the number of directed network links.
	Links() int
	// Route returns the ordered directed link ids a message from src to
	// dst traverses (dimension-order routing). Routing a node to itself
	// returns nil.
	Route(src, dst int) []int
	// AppendRoute appends Route(src, dst) to buf and returns the
	// extended slice, so a caller routing many pairs reuses one buffer.
	AppendRoute(buf []int, src, dst int) []int
}

// Torus3D is a three-dimensional torus with bidirectional links and
// shortest-direction dimension-order (X, then Y, then Z) routing, like
// the Cray T3D interconnect.
type Torus3D struct {
	X, Y, Z int
}

// NewTorus3D validates the dimensions and returns the torus.
func NewTorus3D(x, y, z int) (Torus3D, error) {
	if x < 1 || y < 1 || z < 1 {
		return Torus3D{}, fmt.Errorf("netsim: invalid torus dims %dx%dx%d", x, y, z)
	}
	return Torus3D{X: x, Y: y, Z: z}, nil
}

// Name implements Topology.
func (t Torus3D) Name() string { return fmt.Sprintf("torus-%dx%dx%d", t.X, t.Y, t.Z) }

// Nodes implements Topology.
func (t Torus3D) Nodes() int { return t.X * t.Y * t.Z }

// Links implements Topology: each node has 3 dimensions x 2 directions.
func (t Torus3D) Links() int { return t.Nodes() * 6 }

// Coord converts a node id to (x, y, z).
func (t Torus3D) Coord(n int) (x, y, z int) {
	x = n % t.X
	y = (n / t.X) % t.Y
	z = n / (t.X * t.Y)
	return
}

// NodeAt converts coordinates to a node id.
func (t Torus3D) NodeAt(x, y, z int) int { return x + t.X*(y+t.Y*z) }

// linkID encodes the directed link leaving node n in dimension dim
// (0=x,1=y,2=z) and direction dir (0=+,1=-).
func (t Torus3D) linkID(n, dim, dir int) int { return (n*3+dim)*2 + dir }

// Route implements Topology with shortest-way wraparound routing.
func (t Torus3D) Route(src, dst int) []int { return t.AppendRoute(nil, src, dst) }

// AppendRoute implements Topology.
func (t Torus3D) AppendRoute(path []int, src, dst int) []int {
	if src == dst {
		return path
	}
	sx, sy, sz := t.Coord(src)
	dx, dy, dz := t.Coord(dst)
	cur := [3]int{sx, sy, sz}
	tgt := [3]int{dx, dy, dz}
	size := [3]int{t.X, t.Y, t.Z}
	for dim := 0; dim < 3; dim++ {
		for cur[dim] != tgt[dim] {
			n := t.NodeAt(cur[0], cur[1], cur[2])
			fwd := (tgt[dim] - cur[dim] + size[dim]) % size[dim]
			bwd := size[dim] - fwd
			if fwd <= bwd {
				path = append(path, t.linkID(n, dim, 0))
				cur[dim] = (cur[dim] + 1) % size[dim]
			} else {
				path = append(path, t.linkID(n, dim, 1))
				cur[dim] = (cur[dim] - 1 + size[dim]) % size[dim]
			}
		}
	}
	return path
}

// Mesh2D is a two-dimensional mesh without wraparound links and X-then-Y
// dimension-order routing, like the Intel Paragon backplane. The paper
// notes that "the unfortunate aspect ratio of certain machine sizes
// (e.g., 112x16) and the lack of torus links can cause congestion".
type Mesh2D struct {
	X, Y int
}

// NewMesh2D validates the dimensions and returns the mesh.
func NewMesh2D(x, y int) (Mesh2D, error) {
	if x < 1 || y < 1 {
		return Mesh2D{}, fmt.Errorf("netsim: invalid mesh dims %dx%d", x, y)
	}
	return Mesh2D{X: x, Y: y}, nil
}

// Name implements Topology.
func (m Mesh2D) Name() string { return fmt.Sprintf("mesh-%dx%d", m.X, m.Y) }

// Nodes implements Topology.
func (m Mesh2D) Nodes() int { return m.X * m.Y }

// Links implements Topology: 2 dims x 2 dirs per node (edge links exist
// in the id space but are never routed over).
func (m Mesh2D) Links() int { return m.Nodes() * 4 }

// Coord converts a node id to (x, y).
func (m Mesh2D) Coord(n int) (x, y int) { return n % m.X, n / m.X }

// NodeAt converts coordinates to a node id.
func (m Mesh2D) NodeAt(x, y int) int { return x + m.X*y }

func (m Mesh2D) linkID(n, dim, dir int) int { return (n*2+dim)*2 + dir }

// Route implements Topology.
func (m Mesh2D) Route(src, dst int) []int { return m.AppendRoute(nil, src, dst) }

// AppendRoute implements Topology.
func (m Mesh2D) AppendRoute(path []int, src, dst int) []int {
	if src == dst {
		return path
	}
	cx, cy := m.Coord(src)
	dx, dy := m.Coord(dst)
	for cx != dx {
		n := m.NodeAt(cx, cy)
		if dx > cx {
			path = append(path, m.linkID(n, 0, 0))
			cx++
		} else {
			path = append(path, m.linkID(n, 0, 1))
			cx--
		}
	}
	for cy != dy {
		n := m.NodeAt(cx, cy)
		if dy > cy {
			path = append(path, m.linkID(n, 1, 0))
			cy++
		} else {
			path = append(path, m.linkID(n, 1, 1))
			cy--
		}
	}
	return path
}
