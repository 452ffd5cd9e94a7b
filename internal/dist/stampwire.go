package dist

// Wire encoding of StamperState, shared by the facade's session snapshots
// and dlmond's durable-session checkpoints: both persist a live Stamper
// alongside an engine snapshot, and both must reject a corrupt record
// rather than resume with wrong clocks.

import "decentmon/internal/wire"

// AppendStamperState serializes a captured stamper: message-id counter,
// process count, then each process's clock and last timestamp.
func AppendStamperState(b []byte, st StamperState) []byte {
	b = wire.AppendUvarint(b, uint64(st.MsgSeq))
	b = wire.AppendUvarint(b, uint64(len(st.Clocks)))
	for p, c := range st.Clocks {
		b = wire.AppendFloat64LE(wire.AppendClock(b, c), st.Lasts[p])
	}
	return b
}

// DecodeStamperState parses an AppendStamperState payload, rejecting any
// truncation or trailing bytes.
func DecodeStamperState(payload []byte) (StamperState, error) {
	c := wire.NewCursor(payload)
	st := StamperState{MsgSeq: int64(c.Int())}
	for np := c.Count(9); np > 0 && c.Err() == nil; np-- { // a process is a clock count and 8 timestamp bytes at least
		st.Clocks = append(st.Clocks, c.Clock())
		st.Lasts = append(st.Lasts, c.Float64LE())
	}
	if err := c.Done("dist: stamper state record"); err != nil {
		return StamperState{}, err
	}
	return st, nil
}
