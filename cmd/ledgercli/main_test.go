package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dcsledger/internal/wallet"
)

func TestAddrCommand(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"addr", "-seed", "alice"}, &out); err != nil {
		t.Fatalf("addr: %v", err)
	}
	want := wallet.FromSeed("alice").Address().Hex()
	if strings.TrimSpace(out.String()) != want {
		t.Fatalf("addr = %q, want %q", out.String(), want)
	}
}

func TestUsageErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Fatal("no command must error")
	}
	if err := run([]string{"frobnicate"}, &out); err == nil {
		t.Fatal("unknown command must error")
	}
	if err := run([]string{"addr"}, &out); err == nil {
		t.Fatal("addr without seed must error")
	}
	if err := run([]string{"send", "-seed", "a"}, &out); err == nil {
		t.Fatal("send without -to must error")
	}
}

// TestSendCommand: send prints the node's answer to POST /tx, names a
// rejection as one, and fails on an answer cut short.
func TestSendCommand(t *testing.T) {
	to := wallet.FromSeed("bob").Address().Hex()
	for _, tc := range []struct {
		name    string
		tx      http.HandlerFunc
		wantOut string
		wantErr string
	}{
		{"accepted", func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte(`{"txId":"00ab"}` + "\n"))
		}, `"txId":"00ab"`, ""},
		{"rejected", func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "nonce too low", http.StatusUnprocessableEntity)
		}, "", "node rejected tx: nonce too low"},
		{"truncated", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", "64")
			w.Write([]byte(`{"txId":`))
		}, "", "unexpected EOF"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mux := http.NewServeMux()
			mux.HandleFunc("GET /nonce", func(w http.ResponseWriter, r *http.Request) {
				w.Write([]byte(`{"nonce":3}`))
			})
			mux.HandleFunc("POST /tx", tc.tx)
			srv := httptest.NewServer(mux)
			defer srv.Close()

			var out bytes.Buffer
			err := run([]string{"-node", srv.URL, "send", "-seed", "alice", "-to", to, "-value", "5"}, &out)
			if tc.wantErr == "" {
				if err != nil || !strings.Contains(out.String(), tc.wantOut) {
					t.Fatalf("send = %v, output %q; want %s", err, &out, tc.wantOut)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("send = %v, output %q; want an error naming %q", err, &out, tc.wantErr)
			}
		})
	}
}
