package transport

import "net"

// RawConn is endpoint i's end of the connection it shares with endpoint j, for
// tests that write to it what no endpoint would.
func (nw *TCPNetwork) RawConn(i, j int) net.Conn { return nw.eps[i].conns[j] }
