package distrib

import (
	"encoding/binary"
	"testing"
)

// FuzzClassify: the online classifier must agree with the slice
// reference on any offset sequence — monotone or not, with zero steps,
// strides past 1<<30 and wrapping arithmetic — and regenerate the
// sequence exactly from what it keeps. Each byte of raw is one step,
// signed and multiplied by scale; wide adds a full 64-bit step read
// from the first eight bytes.
func FuzzClassify(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1}, int64(1), false)
	f.Add([]byte{0, 4, 4, 4}, int64(1), false)
	f.Add([]byte{0, 1, 7, 1}, int64(1), false)
	f.Add([]byte{3, 254, 1}, int64(1), false)
	f.Add([]byte{0, 0, 0}, int64(1), false)
	f.Add([]byte{0, 1, 1}, int64(1<<30), false)
	f.Add([]byte{0, 1, 2}, int64(1<<29+1), false)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, int64(3), true)
	f.Fuzz(func(t *testing.T, raw []byte, scale int64, wide bool) {
		if len(raw) == 0 {
			return
		}
		offs := make([]int64, len(raw))
		acc := int64(0)
		if wide && len(raw) >= 8 {
			acc = int64(binary.LittleEndian.Uint64(raw))
		}
		for i, b := range raw {
			acc += int64(int8(b)) * scale
			offs[i] = acc
		}
		if err := checkClassifier(offs); err != nil {
			t.Fatal(err)
		}
		if _, err := Classify(offs); err != nil {
			t.Fatalf("non-empty offsets rejected: %v", err)
		}
	})
}
