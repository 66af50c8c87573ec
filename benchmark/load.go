package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"dcsledger/internal/cryptoutil"
)

// newConnClient returns a client that keeps exactly one connection to
// its host, so "2 submit connections" and "one poller per node" mean
// what they say.
func newConnClient() *http.Client {
	return &http.Client{
		Timeout: httpTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// txRecord is what the harness learned about one transaction of the
// stream while sending it.
type txRecord struct {
	// due is when the request should have been sent: its slot in the
	// fixed schedule. Latencies count from here, so a stall shows in
	// every request that waited behind it.
	due   time.Time
	sent  time.Time
	acked time.Time // zero unless the node answered 200
	err   string    // why it failed, if it did
}

func (r *txRecord) attempted() bool { return !r.sent.IsZero() }

// submit sends the transactions of one connection, in stream order, to
// one follower until stopAt. It is an open loop: transaction k of the
// stream is due at t0 + k*gap whether or not earlier ones were answered;
// a connection that falls behind sends back to back until it caught up.
func submit(ctx context.Context, target *proc, txs []genTx, recs []txRecord, conn int, t0 time.Time, gap time.Duration, stopAt time.Time) {
	c := newConnClient()
	defer c.CloseIdleConnections()
	url := target.url("/tx")
	for k := conn; k < len(txs); k += submitConns {
		due := t0.Add(time.Duration(k) * gap)
		if d := time.Until(due); d > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(d):
			}
		}
		if !due.Before(stopAt) || ctx.Err() != nil {
			return
		}
		r := &recs[k]
		r.due, r.sent = due, time.Now()
		if err := post(ctx, c, url, txs[k].body); err != nil {
			r.err = err.Error()
			continue
		}
		r.acked = time.Now()
	}
}

func post(ctx context.Context, c *http.Client, url string, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	// Drain so the connection is reused.
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// heightLog is one node's chain height over time as the poller saw it.
type heightLog struct {
	mu          sync.Mutex
	firstSeen   []time.Time // index = height; when the poller first saw height >= index
	mempoolPeak int
	mempoolSum  int // over polls, for the mean depth
	polls       int
}

// height returns the highest height seen so far.
func (h *heightLog) height() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.firstSeen) == 0 {
		return 0
	}
	return uint64(len(h.firstSeen) - 1)
}

// seenAt returns when the node was first seen at or above height.
func (h *heightLog) seenAt(height uint64) (time.Time, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if height >= uint64(len(h.firstSeen)) {
		return time.Time{}, false
	}
	return h.firstSeen[height], true
}

func (h *heightLog) observe(st nodeStatus, at time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for uint64(len(h.firstSeen)) <= st.Height {
		h.firstSeen = append(h.firstSeen, at)
	}
	if st.Mempool > h.mempoolPeak {
		h.mempoolPeak = st.Mempool
	}
	h.mempoolSum += st.Mempool
	h.polls++
}

const pollEvery = 5 * time.Millisecond

// poll asks n for /status every 5 ms until ctx ends. The time recorded
// for a height is when the answer arrived, i.e. when a client could
// first have read the block.
func poll(ctx context.Context, n *proc, log *heightLog) {
	c := newConnClient()
	defer c.CloseIdleConnections()
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		// A failed poll (the node is being killed, or slow) only means
		// the next one sees the height later.
		if st, err := getStatus(ctx, c, n); err == nil {
			log.observe(st, time.Now())
		}
	}
}

// readSample is one request of the reader.
type readSample struct {
	due   time.Time
	done  time.Time
	proof *proofReply // set for a successful GET /proof
	err   string
}

type proofReply struct {
	Addr  string   `json:"addr"`
	Root  string   `json:"root"`
	Leaf  string   `json:"leaf"`
	Proof []string `json:"proof"`
}

const readRate = 200 // reader requests per second

// read runs the open-loop reader against n: GET /balance of accounts
// in a fixed order, every other request a GET /proof when the backend
// serves proofs. Requests are sequential on one connection and timed
// from their due time.
func read(ctx context.Context, n *proc, addrs []cryptoutil.Address, proofs bool, t0, stopAt time.Time) []readSample {
	c := newConnClient()
	defer c.CloseIdleConnections()
	gap := time.Second / readRate
	var out []readSample
	for i := 0; ; i++ {
		due := t0.Add(time.Duration(i) * gap)
		if !due.Before(stopAt) {
			return out
		}
		if d := time.Until(due); d > 0 {
			select {
			case <-ctx.Done():
				return out
			case <-time.After(d):
			}
		}
		addr := addrs[i%len(addrs)].Hex()
		s := readSample{due: due}
		if proofs && i%2 == 1 {
			var p proofReply
			if err := getJSON(ctx, c, n.url("/proof?addr="+addr), &p); err != nil {
				s.err = err.Error()
			} else {
				s.proof = &p
			}
		} else {
			var b struct {
				Balance uint64 `json:"balance"`
			}
			if err := getJSON(ctx, c, n.url("/balance?addr="+addr), &b); err != nil {
				s.err = err.Error()
			}
		}
		s.done = time.Now()
		out = append(out, s)
	}
}

// decodeProof turns a /proof answer into the arguments of
// mpt.VerifyProof.
func decodeProof(p *proofReply) (root cryptoutil.Hash, addr cryptoutil.Address, leaf []byte, proof [][]byte, err error) {
	if root, err = cryptoutil.HashFromHex(p.Root); err != nil {
		return
	}
	if addr, err = cryptoutil.AddressFromHex(p.Addr); err != nil {
		return
	}
	if leaf, err = hex.DecodeString(p.Leaf); err != nil {
		return
	}
	proof = make([][]byte, len(p.Proof))
	for i, s := range p.Proof {
		if proof[i], err = hex.DecodeString(s); err != nil {
			return
		}
	}
	return
}

// accountView is a node's answer about one account.
type accountView struct {
	balance uint64
	nonce   uint64
}

func getAccount(ctx context.Context, n *proc, addr cryptoutil.Address) (accountView, error) {
	var b struct {
		Balance uint64 `json:"balance"`
	}
	var nn struct {
		Nonce uint64 `json:"nonce"`
	}
	if err := getJSON(ctx, n.client, n.url("/balance?addr="+addr.Hex()), &b); err != nil {
		return accountView{}, err
	}
	if err := getJSON(ctx, n.client, n.url("/nonce?addr="+addr.Hex()), &nn); err != nil {
		return accountView{}, err
	}
	return accountView{balance: b.Balance, nonce: nn.Nonce}, nil
}
