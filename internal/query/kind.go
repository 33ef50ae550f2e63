package query

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
)

// Request is a decoded query of some registered kind: a pointer to the
// kind's request struct, such as *EvalRequest.
type Request interface {
	// Fingerprint canonically keys the request for result caching.
	Fingerprint() string
}

// Kind is one query kind's entry in the registry. Every layer that
// handles queries generically — the served endpoints and their metrics
// labels, the router, the persistent cache's record tags, the cache's
// size estimate and sweep cell execution — iterates Kinds instead of
// naming kinds, so a new kind is one registration plus its own file.
type Kind struct {
	// Name is the kind's name: the /v1/<Name> endpoint path, its
	// metrics label and its persistent-cache record tag.
	Name string
	// Decode strictly decodes one JSON request (unknown fields are
	// rejected) into a request pointer; errors wrap ErrBadRequest.
	Decode func(r io.Reader) (Request, error)
	// Answer answers a request Decode produced. A nil batch is the
	// point path; a non-nil one shares its state across a batch. The
	// bool is the analytic provenance marker.
	Answer func(req Request, b *Batch) (resp any, analytic bool, err error)
	// DecodeAnswer reverses the JSON encoding of an answer, returning
	// the same concrete value Answer does.
	DecodeAnswer func(data []byte) (any, error)
	// Size approximates the resident bytes of an answer's variable-size
	// fields, for the result cache's byte bound.
	Size func(resp any) int64
	// Home keys a request for routing: requests with equal home keys
	// need the same session laws, so a router that shards by it fits
	// each law on one replica (home.go). Kinds without laws use the
	// fingerprint.
	Home func(req Request) string
}

// kinds is the registry, in endpoint order.
var kinds = []*Kind{
	register("eval", eval, evalSize, nil),
	register("price", price, priceSize, priceHome),
	register("plan", plan, planSize, nil),
	register("collective", collectiveQ, collectiveSize, collectiveHome),
	register("fit", fit, fitSize, nil),
}

// byType maps each kind's request pointer type and answer type to its
// entry.
var byType = map[reflect.Type]*Kind{}

// register builds one registry entry from a kind's answer function,
// size estimate and home key (nil: the fingerprint).
func register[Req any, P interface {
	*Req
	Request
}, Resp any](name string, answer func(Req, *Batch) (Resp, bool, error), size func(Resp) int64, home func(Req) string) *Kind {
	k := &Kind{
		Name: name,
		Decode: func(r io.Reader) (Request, error) {
			req := P(new(Req))
			return req, DecodeJSON(r, req)
		},
		Answer: func(req Request, b *Batch) (any, bool, error) {
			resp, analytic, err := answer(*req.(P), b)
			if err != nil {
				return nil, false, err
			}
			return resp, analytic, nil
		},
		DecodeAnswer: func(data []byte) (any, error) {
			var resp Resp
			err := json.Unmarshal(data, &resp)
			return resp, err
		},
		Size: func(resp any) int64 { return size(resp.(Resp)) },
		Home: func(req Request) string { return req.Fingerprint() },
	}
	if home != nil {
		k.Home = func(req Request) string { return home(*req.(P)) }
	}
	byType[reflect.TypeFor[P]()] = k
	byType[reflect.TypeFor[Resp]()] = k
	return k
}

// Kinds returns the registry in endpoint order. Callers must not
// modify it.
func Kinds() []*Kind { return kinds }

// Lookup returns the kind named name, or nil.
func Lookup(name string) *Kind {
	for _, k := range kinds {
		if k.Name == name {
			return k
		}
	}
	return nil
}

// KindOf returns the kind whose request pointer or answer type v has,
// or nil.
func KindOf(v any) *Kind { return byType[reflect.TypeOf(v)] }

// DecodeJSON strictly decodes one JSON value from r into v, rejecting
// unknown fields; a failure wraps ErrBadRequest.
func DecodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: invalid JSON body: %v", ErrBadRequest, err)
	}
	return nil
}
