// Package maporder is the fixture for the maporder analyzer: map
// iteration feeding ordered output is flagged unless an intervening
// sort makes the order deterministic.
package maporder

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Unsorted leaks map order into the returned slice.
func Unsorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "maporder001"
	}
	return keys
}

// Sorted is the sanctioned collect-then-sort idiom: the sort guard
// below the loop makes the append order irrelevant.
func Sorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// PrintLoop writes lines in randomized order.
func PrintLoop(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want "maporder002"
	}
}

// WriterLoop hands bytes to an io.Writer in randomized order — the
// exact shape that breaks sha256 content addresses over gob streams.
func WriterLoop(m map[string]int, w io.Writer) {
	for k := range m {
		w.Write([]byte(k)) // want "maporder002"
	}
}

// EncoderLoop serializes entries in randomized order.
func EncoderLoop(m map[string]int, enc *json.Encoder) {
	for k := range m {
		enc.Encode(k) // want "maporder002"
	}
}

// PerKeyBuffer writes into a buffer created inside the loop: each
// iteration's bytes are self-contained, so order cannot leak.
func PerKeyBuffer(m map[string]int) map[string]string {
	out := make(map[string]string, len(m))
	for k := range m {
		var b strings.Builder
		b.WriteString(k)
		out[k] = b.String()
	}
	return out
}

// ChanLoop streams values in randomized order.
func ChanLoop(m map[string]int, ch chan<- string) {
	for k := range m {
		ch <- k // want "maporder003"
	}
}

func emitEvent(string) {}

// EmitLoop fires events in randomized order.
func EmitLoop(m map[string]int) {
	for k := range m {
		emitEvent(k) // want "maporder003"
	}
}
