// Command ledgercli is the wallet client for ledgerd's HTTP API.
//
// Usage:
//
//	ledgercli -node http://localhost:8001 status
//	ledgercli -node http://localhost:8001 addr -seed alice
//	ledgercli -node http://localhost:8001 balance -addr <hex>
//	ledgercli -node http://localhost:8001 send -seed alice -to <hex> -value 10 -fee 1
//	ledgercli -node http://localhost:8001 query -contract <hex> -fn balanceOf -arg <hex>
package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/wallet"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ledgercli:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ledgercli", flag.ContinueOnError)
	nodeURL := fs.String("node", "http://localhost:8001", "ledgerd http endpoint")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("usage: ledgercli [-node url] <status|addr|balance|send|query> [flags]")
	}
	cli := &client{base: strings.TrimRight(*nodeURL, "/"), http: &http.Client{Timeout: requestTimeout}}
	cmd, rest := fs.Arg(0), fs.Args()[1:]
	switch cmd {
	case "status":
		return cli.getJSON("/status", nil, stdout)
	case "addr":
		return cmdAddr(rest, stdout)
	case "balance":
		return cmdBalance(cli, rest, stdout)
	case "send":
		return cmdSend(cli, rest, stdout)
	case "query":
		return cmdQuery(cli, rest, stdout)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func cmdAddr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("addr", flag.ContinueOnError)
	seed := fs.String("seed", "", "wallet seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seed == "" {
		return fmt.Errorf("addr: -seed required")
	}
	fmt.Fprintln(stdout, wallet.FromSeed(*seed).Address().Hex())
	return nil
}

func cmdBalance(cli *client, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("balance", flag.ContinueOnError)
	addr := fs.String("addr", "", "account address (hex)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return cli.getJSON("/balance", url.Values{"addr": {*addr}}, stdout)
}

func cmdSend(cli *client, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("send", flag.ContinueOnError)
	var (
		seed  = fs.String("seed", "", "sender wallet seed")
		to    = fs.String("to", "", "recipient address (hex)")
		value = fs.Uint64("value", 0, "amount")
		fee   = fs.Uint64("fee", 1, "fee")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seed == "" || *to == "" {
		return fmt.Errorf("send: -seed and -to required")
	}
	w := wallet.FromSeed(*seed)
	toAddr, err := cryptoutil.AddressFromHex(*to)
	if err != nil {
		return err
	}
	// Align the wallet nonce with chain state.
	var nonceResp struct {
		Nonce uint64 `json:"nonce"`
	}
	if err := cli.getInto("/nonce", url.Values{"addr": {w.Address().Hex()}}, &nonceResp); err != nil {
		return err
	}
	w.SetNonce(nonceResp.Nonce)
	tx, err := w.Transfer(toAddr, *value, *fee)
	if err != nil {
		return err
	}
	body, err := json.Marshal(map[string]string{"txHex": hex.EncodeToString(tx.Encode())})
	if err != nil {
		return err
	}
	out, err := cli.do(http.MethodPost, "/tx", nil, body)
	var rej *rejected
	if errors.As(err, &rej) {
		return fmt.Errorf("node rejected tx: %s", rej.msg)
	}
	if err != nil {
		return err
	}
	_, err = stdout.Write(out)
	return err
}

func cmdQuery(cli *client, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	var (
		contractAddr = fs.String("contract", "", "contract address (hex)")
		fn           = fs.String("fn", "", "function name")
	)
	var queryArgs multiFlag
	fs.Var(&queryArgs, "arg", "function argument (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	v := url.Values{"contract": {*contractAddr}, "fn": {*fn}}
	for _, a := range queryArgs {
		v.Add("arg", a)
	}
	return cli.getJSON("/query", v, stdout)
}

type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// requestTimeout bounds each request, body included, so a stalled
// node fails the command instead of hanging it.
const requestTimeout = 10 * time.Second

type client struct {
	base string
	http *http.Client
}

// rejected is a node's answer other than 200 OK.
type rejected struct{ status, msg string }

func (e *rejected) Error() string { return e.status + ": " + e.msg }

func (c *client) getJSON(path string, query url.Values, out io.Writer) error {
	body, err := c.do(http.MethodGet, path, query, nil)
	if err != nil {
		return err
	}
	_, err = out.Write(body)
	return err
}

func (c *client) getInto(path string, query url.Values, v any) error {
	body, err := c.do(http.MethodGet, path, query, nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// do sends one request, a JSON body with it if body is not nil, and
// returns the whole answer of a 200.
func (c *client) do(method, path string, query url.Values, body []byte) ([]byte, error) {
	u := c.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	req, err := http.NewRequest(method, u, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &rejected{resp.Status, strings.TrimSpace(string(out))}
	}
	return out, nil
}
