// Package wire seeds detorder violations for the neurdb-lint fixture
// module: encoders must not let map iteration order reach the wire.
package wire

import "sort"

func appendString(dst []byte, s string) []byte {
	dst = append(dst, byte(len(s)))
	return append(dst, s...)
}

// encodeUnsorted lets randomized map order decide the encoded byte stream.
func encodeUnsorted(dst []byte, opts map[string]string) []byte {
	for k, v := range opts { // want detorder:"accumulates into dst in iteration order"
		dst = appendString(dst, k)
		dst = appendString(dst, v)
	}
	return dst
}

// encodeSorted is the fix idiom: the key-collection loop feeds a sort, so it
// is exempt, and the encoding loop ranges a slice — clean.
func encodeSorted(dst []byte, opts map[string]string) []byte {
	keys := make([]string, 0, len(opts))
	for k := range opts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		dst = appendString(dst, k)
		dst = appendString(dst, opts[k])
	}
	return dst
}

// countValues reduces commutatively; order cannot be observed — clean.
func countValues(opts map[string]string) int {
	n := 0
	for _, v := range opts {
		n += len(v)
	}
	return n
}

// buildIndex writes through map keys; keyed writes are order-insensitive —
// clean.
func buildIndex(opts map[string]string) map[string]int {
	idx := make(map[string]int, len(opts))
	for k, v := range opts {
		idx[k] = len(v)
	}
	return idx
}

// concatUnsorted builds a string in random order.
func concatUnsorted(opts map[string]string) string {
	s := ""
	for k := range opts { // want detorder:"accumulates into s in iteration order"
		s += k
	}
	return s
}
