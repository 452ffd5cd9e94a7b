// Package transporttest provides network doubles for tests.
package transporttest

import "decentmon/internal/transport"

// BytesOnly wraps nw so that its endpoints are transport.Endpoint and nothing
// more: embedding the interface hides transport.ValueSender, so monitors on
// the returned network encode every message and decode it on arrival, as they
// do over TCP, while delivery, ordering and Stats stay nw's. Tests run the
// same cell on nw as it is and on BytesOnly(nw) to show that nothing depends
// on which path a message took.
func BytesOnly(nw transport.Network) transport.Network { return bytesOnly{nw} }

type bytesOnly struct{ transport.Network }

func (b bytesOnly) Endpoint(i int) transport.Endpoint {
	return bytesEndpoint{b.Network.Endpoint(i)}
}

type bytesEndpoint struct{ transport.Endpoint }
