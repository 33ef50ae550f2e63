package sim

import "testing"

// TestPoolRetention pins both retention bounds: a key keeps at most
// perKey idle values however many are put, and keys beyond maxKeys keep
// none, while values come back last in, first out.
func TestPoolRetention(t *testing.T) {
	p := newPool[int, *int](2, 3)
	vals := make([]*int, 5)
	for i := range vals {
		vals[i] = new(int)
		p.Put(0, vals[i])
	}
	for _, want := range []*int{vals[1], vals[0]} {
		if got, ok := p.Get(0); !ok || got != want {
			t.Fatalf("Get = %p, %t; want %p", got, ok, want)
		}
	}
	if _, ok := p.Get(0); ok {
		t.Fatal("key 0 kept more than perKey idle values")
	}
	for k := 1; k <= 4; k++ {
		p.Put(k, vals[k])
	}
	if _, ok := p.Get(4); ok {
		t.Error("a fourth key was kept beyond maxKeys")
	}
	for k := 1; k <= 2; k++ {
		if got, ok := p.Get(k); !ok || got != vals[k] {
			t.Errorf("key %d: Get = %p, %t; want %p", k, got, ok, vals[k])
		}
	}
	if allocs := testing.AllocsPerRun(20, func() {
		v, _ := p.Get(1)
		p.Put(1, v)
	}); allocs != 0 {
		t.Errorf("Get and Put allocate %.0f times, want 0", allocs)
	}
}
