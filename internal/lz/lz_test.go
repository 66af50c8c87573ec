package lz

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// limit stands in for the WAL's MaxRecordLen.
const limit = 32 << 20

// inputs are the shapes the codec has to get right: nothing, less than
// one hashed group, noise, a few symbols, runs (copies that overlap
// their own output), records of one layout, and self-similar data on
// both sides of the 64 KiB window.
func inputs() map[string][]byte {
	rng := rand.New(rand.NewSource(7))
	noise := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	lowEntropy := make([]byte, 70_000)
	for i := range lowEntropy {
		lowEntropy[i] = "abc"[rng.Intn(3)]
	}
	var records []byte
	for i := 0; i < 1200; i++ { // 145 KiB: positions wrap the tables' 16 bits twice
		records = binary.BigEndian.AppendUint64(records, 233)
		records = append(records, noise(20)...)
		records = binary.BigEndian.AppendUint64(records, uint64(rng.Intn(100)))
		records = binary.BigEndian.AppendUint64(records, 2)
		records = append(records, make([]byte, 16)...)
		records = append(records, noise(64)...)
	}
	block := noise(5000)
	selfSimilar := bytes.Repeat(block, 14) // the window reaches some repeats and not others
	far := append(append(noise(100), make([]byte, 1<<16)...), block[:100]...)
	out := map[string][]byte{
		"empty":        {},
		"one byte":     {0x42},
		"three bytes":  {1, 2, 3},
		"four bytes":   {1, 2, 3, 4},
		"seven same":   bytes.Repeat([]byte{9}, 7),
		"noise 1":      noise(1),
		"noise 63":     noise(63),
		"noise 64":     noise(64),
		"noise 65":     noise(65),
		"noise 64K+":   noise(1<<16 + 77),
		"zeros 64K+":   make([]byte, 1<<16+5),
		"pair run":     bytes.Repeat([]byte{0xab, 0xcd}, 3000),
		"low entropy":  lowEntropy,
		"records":      records,
		"self similar": selfSimilar,
		"far repeat":   far,
	}
	for n := 0; n < 12; n++ {
		out["run "+string(rune('a'+n))] = bytes.Repeat([]byte{7}, n)
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	var e Encoder
	for name, in := range inputs() {
		c := e.Encode(nil, in)
		got, err := Decode(nil, c, limit, limit)
		if err != nil || !bytes.Equal(got, in) {
			t.Errorf("%s: %d bytes came back as %d, err %v", name, len(in), len(got), err)
		}
		if worst := len(in) + len(in)/64 + 1 + binary.MaxVarintLen64; len(c) > worst {
			t.Errorf("%s: %d bytes encode to %d, over the bound %d", name, len(in), len(c), worst)
		}
		// Into a buffer with something in it and room to spare, and with
		// a prefix already in dst.
		if got, _ = Decode(make([]byte, 3, 1<<17), c, limit, limit); !bytes.Equal(got, in) {
			t.Errorf("%s: decode into a reused buffer differs", name)
		}
		if pre := e.Encode([]byte("head"), in); !bytes.Equal(pre, append([]byte("head"), c...)) {
			t.Errorf("%s: Encode does not append to dst", name)
		}
	}
}

// TestCompresses: the inputs with something to find get smaller, by
// about what their shape allows.
func TestCompresses(t *testing.T) {
	var e Encoder
	in := inputs()
	for name, atMost := range map[string]float64{
		"zeros 64K+": 0.03, "pair run": 0.03, "records": 0.78, "self similar": 0.11, "low entropy": 0.5,
	} {
		if got := float64(len(e.Encode(nil, in[name]))) / float64(len(in[name])); got > atMost {
			t.Errorf("%s: ratio %.3f, want at most %.2f", name, got, atMost)
		}
	}
	// Past the window there is nothing to copy from.
	far := in["far repeat"]
	if c := e.Encode(nil, far); len(c) < 200 {
		t.Errorf("far repeat: %d bytes encode to %d, as if a copy reached past the window", len(far), len(c))
	}
}

func TestDeterministic(t *testing.T) {
	var a, b Encoder
	b.Encode(nil, inputs()["low entropy"]) // a used table must not show
	for name, in := range inputs() {
		if !bytes.Equal(a.Encode(nil, in), b.Encode(nil, in)) {
			t.Errorf("%s: two encoders disagree", name)
		}
	}
}

// TestPrefixDecode: Decode(c, n) is the first n bytes of the input, for
// every n on short inputs and for n around every element boundary's
// neighbourhood on long ones.
func TestPrefixDecode(t *testing.T) {
	var e Encoder
	rng := rand.New(rand.NewSource(11))
	for name, in := range inputs() {
		c := e.Encode(nil, in)
		ns := []int{0, 1, len(in) - 1, len(in), len(in) + 1, limit}
		if len(in) <= 4096 {
			for n := 0; n <= len(in); n++ {
				ns = append(ns, n)
			}
		} else {
			for k := 0; k < 300; k++ {
				ns = append(ns, rng.Intn(len(in)))
			}
		}
		for _, n := range ns {
			if n < 0 {
				continue
			}
			got, err := Decode(nil, c, n, limit)
			if want := in[:min(n, len(in))]; err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: Decode(n=%d) = %d bytes, err %v; want the first %d", name, n, len(got), err, len(want))
			}
		}
	}
}

// stream is a run of inputs of the journal's shape: records of one
// layout whose 85-byte "keys" come from a pool of 64 and recur across
// inputs more often than within one, with an 8-byte length and a header
// in front of each input, and every few inputs one far larger than the
// window.
func stream(seed int64, inputs int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = make([]byte, 85)
		rng.Read(keys[i])
	}
	out := make([][]byte, inputs)
	for k := range out {
		header := make([]byte, 40+rng.Intn(40))
		rng.Read(header)
		in := binary.BigEndian.AppendUint64(nil, uint64(len(header)))
		in = append(in, header...)
		records := rng.Intn(60)
		if k%7 == 6 {
			records = 700 // over 100 KiB: the window drops part of the input before it
		}
		for r := 0; r < records; r++ {
			in = binary.BigEndian.AppendUint64(in, uint64(rng.Intn(100)))
			in = append(in, keys[rng.Intn(len(keys))]...)
			sig := make([]byte, 64)
			rng.Read(sig)
			in = append(in, sig...)
		}
		out[k] = in
	}
	return out
}

// guardOf is the header an input of stream carries: its length field
// and what it counts.
func guardOf(in []byte) int { return 8 + int(binary.BigEndian.Uint64(in)) }

// TestStreamRoundTrip: each input of a stream inflates against the
// inputs before it, and its guarded header against nothing; the window
// saves what one-shot encoding cannot see; two encoders of one stream
// agree byte for byte, whatever either encoded before its Reset.
func TestStreamRoundTrip(t *testing.T) {
	ins := stream(3, 40)
	var e, other Encoder
	other.Encode(nil, inputs()["low entropy"])
	other.Next(nil, append(other.Window(), ins[5]...), 0) // a stale stream, reset below
	e.Reset()
	other.Reset()
	var win []byte // the decoder's window: every input so far, trimmed as it grows
	streamed, oneShot, refusedAlone := 0, 0, 0
	for k, in := range ins {
		guard := guardOf(in)
		c := e.Next(nil, append(e.Window(), in...), guard)
		if c2 := other.Next(nil, append(other.Window(), in...), guard); !bytes.Equal(c, c2) {
			t.Fatalf("input %d: two encoders of one stream disagree", k)
		}
		if worst := MaxEncodedLen(len(in)); len(c) > worst {
			t.Fatalf("input %d: %d bytes encode to %d, over MaxEncodedLen %d", k, len(in), len(c), worst)
		}
		got, err := AppendDecode(win, c, limit, limit)
		if err != nil || !bytes.Equal(got[len(win):], in) {
			t.Fatalf("input %d: %d bytes came back as %d, err %v", k, len(in), len(got)-len(win), err)
		}
		if head, err := Decode(nil, c, guard, limit); err != nil || !bytes.Equal(head, in[:guard]) {
			t.Fatalf("input %d: the guarded %d-byte prefix does not inflate without the window: %v", k, guard, err)
		}
		if _, err := Decode(nil, c, limit, limit); err != nil {
			refusedAlone++
		}
		win = Trim(got)
		if len(win) < min(len(got), Window) {
			t.Fatalf("input %d: Trim kept %d bytes of %d, under the window", k, len(win), len(got))
		}
		streamed += len(c)
		oneShot += len(new(Encoder).Encode(nil, in))
	}
	t.Logf("%d inputs: streamed %d bytes, one shot each %d (%.3f); %d need their window", len(ins), streamed, oneShot, float64(streamed)/float64(oneShot), refusedAlone)
	if refusedAlone == 0 || float64(streamed) > 0.9*float64(oneShot) {
		t.Fatalf("the window went unused: %d of %d bytes, %d inputs need it", streamed, oneShot, refusedAlone)
	}
}

// TestStreamProperty: for random streams, random guards and inputs that
// repeat, run through and past the window, every input round-trips
// against its window and its guarded prefix inflates without one.
func TestStreamProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		var e Encoder
		var win []byte
		pool := stream(int64(trial), 12)
		for k := 0; k < 16; k++ {
			in := pool[rng.Intn(len(pool))]
			if rng.Intn(3) == 0 { // a slice of one, or a run
				in = in[rng.Intn(len(in)):]
			}
			guard := rng.Intn(len(in) + 2)
			if rng.Intn(4) == 0 {
				e.Reset()
				win = win[:0]
			}
			c := e.Next(nil, append(e.Window(), in...), guard)
			got, err := AppendDecode(win, c, limit, limit)
			if err != nil || !bytes.Equal(got[len(win):], in) {
				t.Fatalf("trial %d input %d: round trip through a %d-byte window: %v", trial, k, len(win), err)
			}
			if head, err := Decode(nil, c, guard, limit); err != nil || !bytes.Equal(head, in[:min(guard, len(in))]) {
				t.Fatalf("trial %d input %d: guarded prefix of %d: %v", trial, k, guard, err)
			}
			win = Trim(got)
		}
	}
}

// TestExtendProperty: for random streams in which some inputs only
// extend the window (as a node record's key does) and the rest are
// encoded behind it, every encoded input round-trips against a decoder
// window that was handed the extended bytes itself, and the encoder's
// window after Extend is that decoder's; and extended bytes that an
// input repeats become copies.
func TestExtendProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		var e Encoder
		var win []byte
		pool := stream(int64(100+trial), 12)
		for k := 0; k < 32; k++ {
			in := pool[rng.Intn(len(pool))]
			lo := rng.Intn(len(in) + 1)
			in = in[lo : lo+rng.Intn(len(in)-lo+1)] // any slice, empty included
			switch rng.Intn(5) {
			case 0:
				e.Reset()
				win = win[:0]
			case 1, 2:
				e.Extend(append(e.Window(), in...))
				win = Trim(append(win, in...))
				if !bytes.Equal(e.Window(), win) {
					t.Fatalf("trial %d input %d: the encoder's window is not the decoder's after Extend", trial, k)
				}
				continue
			}
			c := e.Next(nil, append(e.Window(), in...), 0)
			got, err := AppendDecode(win, c, limit, limit)
			if err != nil || !bytes.Equal(got[len(win):], in) {
				t.Fatalf("trial %d input %d: round trip through a %d-byte window: %v", trial, k, len(win), err)
			}
			win = Trim(got)
		}
	}
	// Other bytes and a key in the window, then a node naming the key: the
	// 32 bytes are one copy.
	win := make([]byte, 72)
	rng.Read(win)
	key := win[40:]
	node := append(append([]byte{0xf8, 0x44}, key...), 0x80, 0x80)
	var e Encoder
	e.Extend(append(e.Window(), win[:40]...))
	e.Extend(append(e.Window(), key...))
	c := e.Next(nil, append(e.Window(), node...), 0)
	if alone := new(Encoder).Encode(nil, node); len(c) >= len(alone)-25 {
		t.Fatalf("a node repeating the extended key encodes to %d bytes, %d without the key", len(c), len(alone))
	}
	if got, err := AppendDecode(bytes.Clone(win), c, limit, limit); err != nil || !bytes.Equal(got[len(win):], node) {
		t.Fatalf("the node does not inflate behind its key: %v", err)
	}
}

func TestDecodeRefuses(t *testing.T) {
	var e Encoder
	good := e.Encode(nil, []byte("abcdabcdabcdabcd-0123456789"))
	for name, c := range map[string][]byte{
		"no length":                {},
		"unterminated length":      {0x80, 0x80},
		"declared length over max": binary.AppendUvarint(nil, limit+1),
		"huge declared length":     {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"no elements":              {5},
		"torn literal":             {5, 0x04, 'a', 'b'},
		"torn short copy":          {8, 0x03, 'a', 'b', 'c', 'd', 0x40},
		"torn long copy":           {8, 0x03, 'a', 'b', 'c', 'd', 0x80, 0x04},
		"offset zero":              {8, 0x03, 'a', 'b', 'c', 'd', 0x40, 0x00},
		"offset before the start":  {8, 0x03, 'a', 'b', 'c', 'd', 0x80, 0x05, 0x00},
		"copy first":               {4, 0x40, 0x01},
		"literal overruns":         {3, 0x03, 'a', 'b', 'c', 'd'},
		"copy overruns":            {7, 0x03, 'a', 'b', 'c', 'd', 0x40, 0x04},
		"ends early":               good[:len(good)-3],
		"trailing input":           append(append([]byte(nil), good...), 0x00, 'x'),
	} {
		if got, err := Decode(nil, c, limit, limit); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decode = %q, %v; want ErrCorrupt", name, got, err)
		}
	}
	// The bound is the caller's: what one limit admits another refuses.
	if _, err := Decode(nil, good, limit, 8); !errors.Is(err, ErrCorrupt) {
		t.Errorf("a declared length of 27 under a limit of 8: err %v", err)
	}
}

// FuzzLZDecode: for any input and any window the decoder returns an
// error or the window followed by at most the declared length, never
// more than it was asked for, never panics, never touches the window, and
// never believes a declared length above the limit — so what it allocates
// is bounded by the limit and the window whatever the input says. What it
// does accept round-trips through a stream encoder given the same window
// to the same bytes.
func FuzzLZDecode(f *testing.F) {
	var e Encoder
	for _, in := range inputs() {
		if len(in) <= 1<<12 {
			f.Add(e.Encode(nil, in), uint32(len(in)), []byte(nil))
		}
	}
	ins := stream(9, 3)
	e.Reset()
	e.Next(nil, append(e.Window(), ins[0]...), 0)
	f.Add(e.Next(nil, append(e.Window(), ins[1]...), guardOf(ins[1])), uint32(len(ins[1])), ins[0])
	f.Add([]byte{8, 0x03, 'a', 'b', 'c', 'd', 0x40, 0x04}, uint32(8), []byte(nil))
	f.Add([]byte{8, 0x80, 0x06, 0x00, 0x03, 'a', 'b', 'c', 'd'}, uint32(8), []byte("window"))
	f.Add(binary.AppendUvarint(nil, fuzzLimit+1), uint32(1), []byte(nil))
	f.Fuzz(func(t *testing.T, c []byte, n uint32, win []byte) {
		want := int(n % (2 * fuzzLimit))
		before := append([]byte(nil), win...)
		got, err := AppendDecode(win[:len(win):len(win)], c, want, fuzzLimit)
		if !bytes.Equal(win, before) {
			t.Fatal("the decoder wrote into the window")
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		declared, _ := binary.Uvarint(c)
		if !bytes.HasPrefix(got, win) || declared > fuzzLimit || len(got)-len(win) != min(want, int(declared)) || cap(got) > 2*(fuzzLimit+len(win)) {
			t.Fatalf("asked for %d of a declared %d behind a %d-byte window: got %d bytes, cap %d", want, declared, len(win), len(got), cap(got))
		}
		whole, err := AppendDecode(win[:len(win):len(win)], c, fuzzLimit, fuzzLimit)
		if err != nil {
			return // the prefix was fine, something behind it is not
		}
		if !bytes.HasPrefix(whole, got) {
			t.Fatalf("Decode(n=%d) is not a prefix of the whole", want)
		}
		var e Encoder
		e.Next(nil, append(e.Window(), win...), 0)
		re := e.Next(nil, append(e.Window(), whole[len(win):]...), 0)
		w := Trim(append([]byte(nil), win...))
		if back, err := AppendDecode(w, re, fuzzLimit, fuzzLimit); err != nil || !bytes.Equal(back[len(w):], whole[len(win):]) {
			t.Fatalf("re-encoding what decoded does not round-trip: %v", err)
		}
	})
}

// fuzzLimit is small so that the fuzzer finds the limit's edge.
const fuzzLimit = 1 << 16
