package tensor

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

func TestLEBytesIsTheLittleEndianEncoding(t *testing.T) {
	// On a little-endian host the storage is the encoding, byte for byte,
	// and the view aliases it; elsewhere there is no view and callers convert
	// float by float.
	data := Randn(NewRNG(41), 5, 7, 1).Data
	data[3], data[4] = float32(math.Inf(-1)), float32(math.NaN())
	var want []byte
	for _, v := range data {
		want = binary.LittleEndian.AppendUint32(want, math.Float32bits(v))
	}
	got := LEBytes(data)
	if !littleEndian {
		if got != nil {
			t.Fatal("a byte view of float storage on a big-endian host")
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the view differs from the float-by-float encoding")
	}
	binary.LittleEndian.PutUint32(got[8:], math.Float32bits(1.5))
	if data[2] != 1.5 {
		t.Fatalf("a write through the view left data[2] = %g", data[2])
	}
	if LEBytes(nil) != nil {
		t.Fatal("a view of no floats")
	}
}
