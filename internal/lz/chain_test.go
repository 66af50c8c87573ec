package lz

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// window is a plain model of a Chain's rule: the positions and sizes of
// the records of the current window, none once the chain is broken.
type window struct {
	cap, records int
	pos, size    []int
}

// back is the back a writer gives a record of size bytes at pos: the
// distance to the window's first record while the window holds fewer
// than its records (WindowRecords if 0), lies before pos, and with a cap
// keeps all of its records and this one within it; else 0.
func (w *window) back(pos, size int) int {
	total := size
	for _, s := range w.size {
		total += s
	}
	records := w.records
	if records == 0 {
		records = WindowRecords
	}
	if len(w.pos) == 0 || len(w.pos) == records || pos <= w.pos[0] || w.cap > 0 && total > w.cap {
		return 0
	}
	return pos - w.pos[0]
}

// admit is whether a scan takes in a record: a restart always, any other
// back only when it is the writer's.
func (w *window) admit(pos, back, size int) bool {
	ok := back == 0 || back == w.back(pos, size)
	if !ok || back == 0 {
		w.pos, w.size = nil, nil
	}
	if ok {
		w.pos, w.size = append(w.pos, pos), append(w.size, size)
	}
	return ok
}

// FuzzChain drives a Chain with random positions, backs and sizes against
// window, a plain model of its rule. Each op is three bytes: how far the
// position moves on (255: back to 0, as the journal's do at a new
// segment), the size of the record's node, and the back claimed for it.
// capacity is the window's cap in its low 11 bits and its record bound in
// the rest (0: WindowRecords). Every back Back returns must agree with the model and be
// admitted, by the writer's chain and by a scan's that sees only what the
// writer wrote; every claimed back must be admitted exactly when the model
// admits it. Then the records the writer chained are encoded, one of them
// is broken, and they are inflated in order, with Keep and without: the
// broken record and the later records of its window fail, every other
// record inflates to its node, and a kept one stays so to the end.
func FuzzChain(f *testing.F) {
	f.Add([]byte{1, 10, 0, 1, 10, 0, 1, 10, 70, 5, 255, 0, 3, 3, 200}, uint16(64), uint8(1))
	f.Add(bytes.Repeat([]byte{3, 40, 0}, 40), uint16(0), uint8(17))
	f.Add(bytes.Repeat([]byte{9, 200, 65}, 30), uint16(700), uint8(4))
	f.Add([]byte{1, 10, 0, 1, 10, 0, 255, 10, 0, 1, 10, 0, 255, 10, 129}, uint16(0), uint8(3))
	f.Add(bytes.Repeat([]byte{1, 4, 0}, 40), uint16(3<<11), uint8(5))            // three records a window
	f.Add(bytes.Repeat([]byte{1, 30, 0}, 40), uint16(31<<11|400), uint8(9))      // thirty-one records, or 400 bytes
	f.Add(bytes.Repeat([]byte{1, 4, 0}, 40), uint16(31<<11), uint8(2))           // thirty-one records, no cap
	f.Add([]byte{1, 4, 0, 1, 4, 0, 1, 4, 0, 1, 4, 131}, uint16(2<<11), uint8(0)) // a back past two records
	f.Fuzz(func(t *testing.T, ops []byte, capacity uint16, broken uint8) {
		const keyLen, limit = 4, 1 << 12
		capBytes, records := int(capacity%2048), int(capacity>>11)
		chain := func() Chain { return Chain{Cap: capBytes, Records: records} }
		writer, scan, claims := chain(), chain(), chain()
		wm, cm := window{cap: capBytes, records: records}, window{cap: capBytes, records: records}
		var pos []int
		var nodes [][]byte
		var backs []int
		at := 0
		for ; len(ops) >= 3; ops = ops[3:] {
			if at += 1 + int(ops[0]%64); ops[0] == 255 {
				at = 0
			}
			node := make([]byte, ops[1])
			for j := range node {
				node[j] = byte(len(nodes)%4*31 + j%7)
			}
			size := keyLen + len(node)
			back := writer.Back(at, size)
			if want := wm.back(at, size); back != want {
				t.Fatalf("record at %d: Back %d, model %d", at, back, want)
			}
			wm.admit(at, back, size)
			if !writer.Admit(at, back, size) || !scan.Admit(at, back, size) {
				t.Fatalf("record at %d: the writer's back %d is refused", at, back)
			}
			pos, nodes, backs = append(pos, at), append(nodes, node), append(backs, back)

			claim := back
			switch k := int(ops[2]); {
			case k >= 128:
				claim = k - 128
			case k >= 64 && k-64 < len(pos):
				claim = at - pos[len(pos)-1-(k-64)]
			}
			if got, want := claims.Admit(at, claim, size), cm.admit(at, claim, size); got != want {
				t.Fatalf("record at %d claiming back %d: admitted %v, model %v", at, claim, got, want)
			}
		}
		if len(pos) == 0 {
			return
		}

		var enc Encoder
		payloads := make([][]byte, len(pos))
		for i, node := range nodes {
			if backs[i] == 0 {
				enc.Reset()
			}
			enc.Extend(append(enc.Window(), key(pos[i])...))
			payloads[i] = enc.Next(AppendBack(nil, backs[i]), append(enc.Window(), node...), 0)
		}
		bad := int(broken) % len(pos)
		_, k := binary.Uvarint(payloads[bad])
		payloads[bad][k] ^= 1 // the declared length, which no encoding survives
		keep, reuse := chain(), chain()
		keep.Keep = true
		kept := make([][]byte, len(pos))
		failing := false
		for i, p := range payloads {
			failing = i == bad || failing && backs[i] != 0
			back, e, n, _ := Split(p, limit)
			for _, c := range []*Chain{&keep, &reuse} {
				out, err := c.Inflate(pos[i], back, keyLen+n, key(pos[i]), e, limit)
				if failing != (err != nil) || err == nil && !bytes.Equal(out, nodes[i]) {
					t.Fatalf("record %d of %d, record %d broken: %q, %v", i, len(pos), bad, out, err)
				}
				if c == &keep {
					kept[i] = out
				}
			}
		}
		for i, out := range kept {
			if out != nil && !bytes.Equal(out, nodes[i]) {
				t.Fatalf("record %d no longer holds its node once later windows inflated", i)
			}
		}
	})
}

// key is the bytes a record at pos has beside its node, put in the window
// unencoded.
func key(pos int) []byte { return binary.BigEndian.AppendUint32(nil, uint32(pos)) }
