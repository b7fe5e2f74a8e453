package grid

import (
	"math"
	"math/bits"
	"strings"
	"testing"
)

// FuzzParseSpec pins the spec parser's contract: any input either fails
// or yields a spec of at least two nodes whose Size is the exact,
// overflow-checked product of its shape, and which re-parses to itself
// through the colon form of its String rendering (the form the placed
// cache reads artifact specs back in).
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"torus:4x2x3", "mesh:6,9", "ring:24", "line:24", "grid:2x2",
		"mesh:4294967296x4294967296",
		"mesh:9223372036854775807x2",
	} {
		f.Add(seed)
	}
	toColon := strings.NewReplacer("(", ":", ")", "")
	f.Fuzz(func(t *testing.T, in string) {
		sp, err := ParseSpec(in)
		if err != nil {
			return
		}
		var n uint64 = 1
		for _, l := range sp.Shape {
			hi, lo := bits.Mul64(n, uint64(l))
			if l < 2 || hi != 0 || lo > math.MaxInt {
				t.Fatalf("ParseSpec(%q) accepted shape %v, whose node count overflows int", in, sp.Shape)
			}
			n = lo
		}
		if sp.Size() < 2 || uint64(sp.Size()) != n {
			t.Fatalf("ParseSpec(%q): Size() = %d, want the product %d (>= 2)", in, sp.Size(), n)
		}
		colon := toColon.Replace(sp.String())
		back, err := ParseSpec(colon)
		if err != nil {
			t.Fatalf("ParseSpec(%q) = %s, but its colon form %q does not parse: %v", in, sp, colon, err)
		}
		if back.Kind != sp.Kind || !back.Shape.Equal(sp.Shape) {
			t.Fatalf("ParseSpec(%q) = %s, but its colon form %q parses to %s", in, sp, colon, back)
		}
	})
}
