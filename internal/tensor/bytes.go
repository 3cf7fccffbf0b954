package tensor

import "unsafe"

// littleEndian reports whether float32 storage on this host already is the
// little-endian byte stream the on-disk and wire formats use.
var littleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// LEBytes returns data's storage as the bytes of its little-endian encoding,
// without copying, on a little-endian host: reading into them fills data and
// hashing them hashes what encoding float by float would produce. On any
// other host it returns nil and the caller converts element by element. The
// bytes alias data.
func LEBytes(data []float32) []byte {
	if !littleEndian {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(data))), 4*len(data))
}
