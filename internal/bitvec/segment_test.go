package bitvec

import (
	"math/rand"
	"testing"
)

func TestNumSegments(t *testing.T) {
	cases := []struct{ n, want int }{
		{-1, 0}, {0, 0}, {1, 1}, {64, 1},
		{SegmentBits - 1, 1}, {SegmentBits, 1}, {SegmentBits + 1, 2},
		{3 * SegmentBits, 3}, {3*SegmentBits + 7, 4},
	}
	for _, c := range cases {
		if got := NumSegments(c.n); got != c.want {
			t.Errorf("NumSegments(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestSegmentSpanCoversAllWords(t *testing.T) {
	for _, n := range []int{1, 63, 64, SegmentBits, SegmentBits + 1, 2*SegmentBits + 777} {
		v := New(n)
		prev := 0
		for s := 0; s < v.Segments(); s++ {
			lo, hi := v.SegmentSpan(s)
			if lo != prev {
				t.Fatalf("n=%d seg=%d: lo=%d, want contiguous %d", n, s, lo, prev)
			}
			if hi <= lo {
				t.Fatalf("n=%d seg=%d: empty span [%d,%d)", n, s, lo, hi)
			}
			if hi-lo > SegmentWords {
				t.Fatalf("n=%d seg=%d: span %d words > SegmentWords", n, s, hi-lo)
			}
			prev = hi
		}
		if prev != v.Words() {
			t.Fatalf("n=%d: spans cover %d words, vector has %d", n, prev, v.Words())
		}
	}
}

func TestSegmentSpanPanics(t *testing.T) {
	v := New(100)
	for _, seg := range []int{-1, 1, 99} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SegmentSpan(%d) did not panic", seg)
				}
			}()
			v.SegmentSpan(seg)
		}()
	}
}

// popcountWords is the reference for PopcountRange: the set bits of
// words [lo, hi), one bit at a time.
func popcountWords(v *Vector, lo, hi int) int {
	c := 0
	for i := lo * wordBits; i < hi*wordBits && i < v.Len(); i++ {
		if v.Get(i) {
			c++
		}
	}
	return c
}

func TestSegmentKernelsMatchWholeVector(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 64, 1000, SegmentBits - 1, SegmentBits, SegmentBits + 65, 2*SegmentBits + 333} {
		a := randomVec(r, n)
		sum := 0
		for s := 0; s < a.Segments(); s++ {
			lo, hi := a.SegmentSpan(s)
			sum += a.PopcountRange(lo, hi)
		}
		if sum != a.Count() {
			t.Errorf("n=%d: sum of PopcountRange = %d, Count = %d", n, sum, a.Count())
		}
	}
}

func TestSegmentKernelZeroLengthRange(t *testing.T) {
	a := randomVec(rand.New(rand.NewSource(9)), 2048)
	for _, at := range []int{0, 3, a.Words()} {
		if got := a.PopcountRange(at, at); got != 0 {
			t.Errorf("PopcountRange(%d, %d) = %d, want 0", at, at, got)
		}
	}
}

func TestSegmentKernelPanics(t *testing.T) {
	a := New(128)
	cases := []struct {
		name   string
		lo, hi int
	}{
		{"lo<0", -1, 1},
		{"hi<lo", 2, 1},
		{"hi>words", 0, 3},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			a.PopcountRange(c.lo, c.hi)
		}()
	}
}

// FuzzSegmentKernels checks PopcountRange at fuzzer-chosen lengths and
// word ranges against a bit-at-a-time count, exercising tail words,
// segment boundaries, and zero-length ranges, and checks that the counts
// of every segment sum to Count.
func FuzzSegmentKernels(f *testing.F) {
	f.Add(int64(1), uint(100), uint(0), uint(2))
	f.Add(int64(2), uint(SegmentBits), uint(SegmentWords-1), uint(SegmentWords))
	f.Add(int64(3), uint(SegmentBits+65), uint(0), uint(0))
	f.Add(int64(4), uint(2*SegmentBits+7), uint(SegmentWords), uint(2*SegmentWords))
	f.Fuzz(func(t *testing.T, seed int64, n, lo, hi uint) {
		nn := int(n%(3*SegmentBits)) + 1
		a := randomVec(rand.New(rand.NewSource(seed)), nn)
		words := a.Words()
		l := int(lo) % (words + 1)
		h := l + int(hi)%(words-l+1)
		if got, want := a.PopcountRange(l, h), popcountWords(a, l, h); got != want {
			t.Fatalf("PopcountRange[%d,%d) n=%d = %d, want %d", l, h, nn, got, want)
		}

		whole := 0
		for i := 0; i < a.Segments(); i++ {
			slo, shi := a.SegmentSpan(i)
			whole += a.PopcountRange(slo, shi)
		}
		if whole != a.Count() {
			t.Fatalf("segment popcount sum %d != Count %d (n=%d)", whole, a.Count(), nn)
		}
	})
}
