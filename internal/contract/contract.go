// Package contract implements the Contract layer's second execution
// model: native contracts — deterministic Go implementations registered
// by name, the moral equivalent of Hyperledger chaincode. It also
// provides the combined executor that dispatches deploy/invoke
// transactions either to the bytecode VM or to a native contract, and
// ships the reusable contracts the paper's examples call for: a token,
// a notary (Figure 3's contract-layer example), an escrow, and a
// crowdfunding ÐApp (Section 3.2).
package contract

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/state"
	"dcsledger/internal/types"
	"dcsledger/internal/vm"
)

// Package errors, matchable with errors.Is.
var (
	ErrUnknownContract = errors.New("contract: unknown native contract")
	ErrUnknownFn       = errors.New("contract: unknown function")
	ErrForbidden       = errors.New("contract: caller not authorized")
	ErrBadArgs         = errors.New("contract: bad arguments")
	ErrBadState        = errors.New("contract: invalid contract state")
)

// nativePrefix marks deploy payloads that bind a registered native
// contract instead of bytecode.
const nativePrefix = "native:"

// Context is the execution environment handed to a native contract.
type Context struct {
	State  *state.State
	Self   cryptoutil.Address
	Caller cryptoutil.Address
	Value  uint64
	Time   int64
}

// Helpers for contract storage.

// Get reads a storage slot of the contract.
func (c *Context) Get(key string) []byte { return c.State.Storage(c.Self, []byte(key)) }

// Set writes a storage slot of the contract.
func (c *Context) Set(key string, value []byte) { c.State.SetStorage(c.Self, []byte(key), value) }

// GetUint reads a uint64 slot (0 if unset).
func (c *Context) GetUint(key string) uint64 {
	b := c.Get(key)
	if len(b) != 8 {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// SetUint writes a uint64 slot.
func (c *Context) SetUint(key string, v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	c.Set(key, b[:])
}

// GetAddr reads an address slot.
func (c *Context) GetAddr(key string) cryptoutil.Address {
	var a cryptoutil.Address
	copy(a[:], c.Get(key))
	return a
}

// SetAddr writes an address slot.
func (c *Context) SetAddr(key string, a cryptoutil.Address) { c.Set(key, a[:]) }

// Native is a deterministic Go contract.
type Native interface {
	// Invoke executes one function; returning an error reverts every
	// state effect of the call.
	Invoke(ctx *Context, fn string, args []string) ([]byte, error)
}

// Call is the wire encoding of a native invocation, carried in
// Transaction.Data.
type Call struct {
	Fn   string   `json:"fn"`
	Args []string `json:"args,omitempty"`
}

// EncodeCall marshals an invocation payload.
func EncodeCall(fn string, args ...string) []byte {
	data, err := json.Marshal(Call{Fn: fn, Args: args})
	if err != nil {
		// Strings always marshal; this is unreachable.
		panic(err)
	}
	return data
}

// DecodeCall parses an invocation payload.
func DecodeCall(data []byte) (Call, error) {
	var c Call
	if err := json.Unmarshal(data, &c); err != nil {
		return Call{}, fmt.Errorf("%w: %v", ErrBadArgs, err)
	}
	if c.Fn == "" {
		return Call{}, fmt.Errorf("%w: empty function", ErrBadArgs)
	}
	return c, nil
}

// Registry maps names to native contract constructors.
type Registry struct {
	factories map[string]func() Native
}

// NewRegistry returns a registry preloaded with the built-in contracts
// (token, notary, escrow, crowdfund).
func NewRegistry() *Registry {
	r := &Registry{factories: make(map[string]func() Native)}
	r.Register("token", func() Native { return &Token{} })
	r.Register("notary", func() Native { return &Notary{} })
	r.Register("escrow", func() Native { return &Escrow{} })
	r.Register("crowdfund", func() Native { return &Crowdfund{} })
	return r
}

// Register adds a native contract constructor.
func (r *Registry) Register(name string, factory func() Native) {
	r.factories[name] = factory
}

// New instantiates a registered contract.
func (r *Registry) New(name string) (Native, error) {
	f, ok := r.factories[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownContract, name)
	}
	return f(), nil
}

// DeployPayload returns the Transaction.Data that deploys the named
// native contract.
func DeployPayload(name string) []byte { return []byte(nativePrefix + name) }

// Executor dispatches contract transactions to either the bytecode VM
// or a native contract, implementing state.Executor.
type Executor struct {
	registry *Registry
	vm       *vm.Executor
	// NativeBaseGas + NativeGasPerArgByte price native invocations.
	NativeBaseGas       uint64
	NativeGasPerArgByte uint64
}

var _ state.Executor = (*Executor)(nil)

// NewExecutor builds the combined executor.
func NewExecutor(registry *Registry) *Executor {
	return &Executor{
		registry:            registry,
		vm:                  vm.NewExecutor(),
		NativeBaseGas:       40,
		NativeGasPerArgByte: 2,
	}
}

// Fork implements state.ForkableExecutor: the fork shares the immutable
// registry and gas schedule but drives its own copy of the VM executor,
// so speculation lanes share nothing mutable.
func (e *Executor) Fork() state.Executor {
	f := *e
	f.vm = e.vm.Fork().(*vm.Executor)
	return &f
}

// Absorb implements state.ForkableExecutor: a fork accumulates nothing
// to merge back.
func (e *Executor) Absorb(state.Executor) {}

var _ state.ForkableExecutor = (*Executor)(nil)

// SetNow propagates block time into executions.
func (e *Executor) SetNow(now int64) { e.vm.Now = now }

// Now returns the configured block time.
func (e *Executor) Now() int64 { return e.vm.Now }

// Deploy implements state.Executor.
func (e *Executor) Deploy(st *state.State, tx *types.Transaction) (cryptoutil.Address, uint64, error) {
	if name, ok := nativeName(tx.Data); ok {
		if _, err := e.registry.New(name); err != nil {
			return cryptoutil.ZeroAddress, 0, err
		}
		addr := vm.ContractAddress(tx.From, tx.Nonce)
		st.SetCode(addr, tx.Data)
		return addr, e.NativeBaseGas, nil
	}
	return e.vm.Deploy(st, tx)
}

// Invoke implements state.Executor.
func (e *Executor) Invoke(st *state.State, tx *types.Transaction) (uint64, error) {
	code := st.Code(tx.To)
	name, ok := nativeName(code)
	if !ok {
		return e.vm.Invoke(st, tx)
	}
	gas := e.NativeBaseGas + uint64(len(tx.Data))*e.NativeGasPerArgByte
	if gas > tx.GasLimit {
		return tx.GasLimit, fmt.Errorf("%w: native call needs %d gas", vm.ErrOutOfGas, gas)
	}
	impl, err := e.registry.New(name)
	if err != nil {
		return gas, err
	}
	call, err := DecodeCall(tx.Data)
	if err != nil {
		return gas, err
	}
	ctx := &Context{State: st, Self: tx.To, Caller: tx.From, Value: tx.Value, Time: e.vm.Now}
	if _, err := impl.Invoke(ctx, call.Fn, call.Args); err != nil {
		return gas, err
	}
	return gas, nil
}

// Query runs a read-only native call against a copy of the state: free
// of charge and guaranteed side-effect free, mirroring the VM's
// constant calls.
func (e *Executor) Query(st *state.State, self cryptoutil.Address, caller cryptoutil.Address, fn string, args ...string) ([]byte, error) {
	code := st.Code(self)
	name, ok := nativeName(code)
	if !ok {
		return nil, fmt.Errorf("%w at %s", ErrUnknownContract, self.Short())
	}
	impl, err := e.registry.New(name)
	if err != nil {
		return nil, err
	}
	ctx := &Context{State: st.Copy(), Self: self, Caller: caller, Time: e.vm.Now}
	out, err := impl.Invoke(ctx, fn, args)
	if rerr := ctx.State.Err(); rerr != nil {
		return nil, rerr // whatever it answered was computed over a failed read
	}
	return out, err
}

func nativeName(code []byte) (string, bool) {
	s := string(code)
	if !strings.HasPrefix(s, nativePrefix) {
		return "", false
	}
	return strings.TrimPrefix(s, nativePrefix), true
}
