package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	col := []string{"a", "b", "c", "a", "b"}
	isNull := []bool{false, false, false, false, true}
	ix, err := Build(col, isNull, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(0); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := Save(&buf, ix, StringCodec{}); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load[string](&buf, StringCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != ix.Len() || loaded.K() != ix.K() || loaded.Cardinality() != ix.Cardinality() {
		t.Fatalf("shape mismatch after load: len=%d k=%d card=%d", loaded.Len(), loaded.K(), loaded.Cardinality())
	}
	if loaded.Deleted() != 1 {
		t.Fatalf("Deleted = %d", loaded.Deleted())
	}
	for _, v := range []string{"a", "b", "c"} {
		want, _ := ix.Eq(v)
		got, _ := loaded.Eq(v)
		if !got.Equal(want) {
			t.Fatalf("Eq(%s) differs after load", v)
		}
	}
	wantNull, _ := ix.IsNull()
	gotNull, _ := loaded.IsNull()
	if !gotNull.Equal(wantNull) {
		t.Fatal("IsNull differs after load")
	}
	// Loaded index stays maintainable.
	if err := loaded.Append("zzz"); err != nil {
		t.Fatal(err)
	}
	if err := loaded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	ix, err := Build([]int64{1, 2, 3, 1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, ix, Int64Codec{}); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string]func() []byte{
		"bad magic": func() []byte {
			b := append([]byte(nil), good...)
			b[0] = 'X'
			return b
		},
		"bad version": func() []byte {
			b := append([]byte(nil), good...)
			b[4] = 99
			return b
		},
		"flipped payload bit": func() []byte {
			b := append([]byte(nil), good...)
			b[len(b)/2] ^= 0x40
			return b
		},
		"truncated": func() []byte {
			return good[:len(good)-6]
		},
		"truncated header": func() []byte {
			return good[:8]
		},
		"flipped checksum": func() []byte {
			b := append([]byte(nil), good...)
			b[len(b)-1] ^= 0xFF
			return b
		},
	}
	for name, mk := range cases {
		if _, err := Load[int64](bytes.NewReader(mk()), Int64Codec{}); err == nil {
			t.Errorf("%s: Load accepted corrupted data", name)
		}
	}
	// The pristine bytes still load.
	if _, err := Load[int64](bytes.NewReader(good), Int64Codec{}); err != nil {
		t.Fatalf("pristine bytes failed to load: %v", err)
	}
}

func TestCodecs(t *testing.T) {
	if b, _ := (StringCodec{}).Encode("hi"); string(b) != "hi" {
		t.Fatal("StringCodec encode")
	}
	if v, err := (StringCodec{}).Decode([]byte("hi")); err != nil || v != "hi" {
		t.Fatal("StringCodec decode")
	}
	b, _ := (Int64Codec{}).Encode(-42)
	if v, err := (Int64Codec{}).Decode(b); err != nil || v != -42 {
		t.Fatal("Int64Codec round trip")
	}
	if _, err := (Int64Codec{}).Decode([]byte("nope")); err == nil {
		t.Fatal("Int64Codec should reject garbage")
	}
	b, _ = (IntCodec{}).Encode(7)
	if v, err := (IntCodec{}).Decode(b); err != nil || v != 7 {
		t.Fatal("IntCodec round trip")
	}
	if _, err := (IntCodec{}).Decode([]byte("x")); err == nil {
		t.Fatal("IntCodec should reject garbage")
	}
}

// Property: Save/Load is the identity on query results for random
// indexes with deletions and NULLs.
func TestPropSaveLoadIdentity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		col := make([]int64, n)
		isNull := make([]bool, n)
		for i := range col {
			col[i] = int64(r.Intn(25))
			isNull[i] = r.Intn(12) == 0
		}
		ix, err := Build(col, isNull, nil)
		if err != nil {
			return false
		}
		for d := 0; d < n/8; d++ {
			if ix.Delete(r.Intn(n)) != nil {
				return false
			}
		}
		var buf bytes.Buffer
		if err := Save(&buf, ix, Int64Codec{}); err != nil {
			return false
		}
		loaded, err := Load[int64](&buf, Int64Codec{})
		if err != nil {
			return false
		}
		for trial := 0; trial < 4; trial++ {
			vals := []int64{int64(r.Intn(25)), int64(r.Intn(25))}
			a, stA := ix.In(vals)
			b, stB := loaded.In(vals)
			if !a.Equal(b) || stA.VectorsRead != stB.VectorsRead {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestLoadRejectsUncountedVoidRows pins that Load rejects a payload whose
// vectors hold a void row its delete count does not: an ordered code
// space's range cover selects the void code while no row is deleted, so
// the loaded index would return the void row from ranges.
func TestLoadRejectsUncountedVoidRows(t *testing.T) {
	oi, err := BuildOrdered([]int64{1, 2, 3, 1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix := oi.Index()
	for _, vec := range ix.vectors {
		vec.Clear(1) // void row 1 without counting the delete
	}
	var buf bytes.Buffer
	if err := Save(&buf, ix, Int64Codec{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load[int64](bytes.NewReader(buf.Bytes()), Int64Codec{}); err == nil {
		t.Fatal("Load accepted a void row the delete count does not hold")
	}
}
