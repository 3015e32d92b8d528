// Command sprouttunnel carries arbitrary UDP traffic across a cellular
// path inside a live Sprout session — the paper's SproutTunnel (§4.3) as a
// working relay. Client applications keep their ordinary sockets; the
// tunnel gives each flow its own queue, fills the Sprout window round-robin
// and bounds total buffering by the delivery forecast, so an interactive
// flow stays interactive next to a bulk one.
//
// Topology (client side sits behind the cellular link):
//
//	app ⇄ UDP :local ⇄ sprouttunnel -client ⇄ (cellular path) ⇄
//	    sprouttunnel -server ⇄ UDP dst
//
// Usage:
//
//	sprouttunnel -server -listen :6000 -forward 10.0.0.5:7000
//	sprouttunnel -client -local :5000 -remote relay.example.org:6000
//
// Each local peer (source address) becomes one tunnel flow. Each side is
// one tunnel.Endpoint, the one the experiments run: two Sprout sessions,
// one per direction, share its UDP socket, and the endpoint routes each
// datagram by the session id in its Sprout header. SIGINT or SIGTERM stops
// the tool.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"sprout/internal/network"
	"sprout/internal/realtime"
	"sprout/internal/tunnel"
	"sprout/internal/udp"
)

// Sprout session ids on the wire: data toward the server, data toward the
// client.
const (
	sessToServer = 1
	sessToClient = 2
)

func main() {
	client := flag.Bool("client", false, "run the client (mobile) endpoint")
	server := flag.Bool("server", false, "run the server (relay) endpoint")
	local := flag.String("local", ":5000", "client: UDP address apps send to")
	remote := flag.String("remote", "", "client: the relay's address")
	listen := flag.String("listen", ":6000", "server: UDP listen address for the tunnel")
	forward := flag.String("forward", "", "server: destination for decapsulated datagrams")
	stats := flag.Duration("stats", 5*time.Second, "statistics interval (0 disables)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	clock := realtime.New(ctx)
	var ep *tunnel.Endpoint
	switch {
	case *client && !*server && *remote != "":
		ep = runClient(clock, *local, *remote)
	case *server && !*client && *forward != "":
		ep = runServer(clock, *listen, *forward)
	default:
		fmt.Fprintln(os.Stderr, "sprouttunnel: need -client -remote HOST:PORT or -server -forward HOST:PORT")
		os.Exit(2)
	}
	tick := time.Tick(*stats) // nil, so never ready, for -stats 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick:
			clock.Do(func() {
				fmt.Fprintf(os.Stderr,
					"sprouttunnel: sent %d pkts (backlog %d B, drops %d)  recv %d pkts  window %d B\n",
					ep.Sender.PacketsSent(), ep.Ingress.Backlog(), ep.Ingress.HeadDrops(),
					ep.Receiver.PacketsReceived(), ep.Sender.Window())
			})
		}
	}
}

func runClient(clock *realtime.Clock, local, remote string) *tunnel.Endpoint {
	tunnelSock, err := udp.Dial(clock, remote)
	exitOn(err)
	appAddr, err := net.ResolveUDPAddr("udp", local)
	exitOn(err)
	appSock, err := net.ListenUDP("udp", appAddr)
	exitOn(err)
	fmt.Fprintf(os.Stderr, "sprouttunnel: client %s ⇄ %s\n", appSock.LocalAddr(), remote)

	// Flow table: local app address <-> tunnel flow id.
	var mu sync.Mutex
	flowByAddr := map[string]uint32{}
	addrByFlow := map[uint32]*net.UDPAddr{}
	nextFlow := uint32(10)

	ep := startEndpoint(clock, tunnelSock, sessToServer, sessToClient, func(p *network.Packet) {
		mu.Lock()
		addr := addrByFlow[p.Flow]
		mu.Unlock()
		if addr != nil {
			appSock.WriteToUDP(p.Payload, addr)
		}
	})

	// Local app reader.
	go func() {
		buf := make([]byte, 64*1024)
		for {
			n, from, err := appSock.ReadFromUDP(buf)
			if err != nil {
				exitOn(err)
			}
			key := from.String()
			mu.Lock()
			flow, ok := flowByAddr[key]
			if !ok {
				flow = nextFlow
				nextFlow++
				flowByAddr[key] = flow
				addrByFlow[flow] = from
			}
			mu.Unlock()
			submit(clock, ep, flow, buf[:n])
		}
	}()
	return ep
}

func runServer(clock *realtime.Clock, listen, forward string) *tunnel.Endpoint {
	tunnelSock, err := udp.Listen(clock, listen)
	exitOn(err)
	dst, err := net.ResolveUDPAddr("udp", forward)
	exitOn(err)
	fmt.Fprintf(os.Stderr, "sprouttunnel: relay %s → %s\n", tunnelSock.LocalAddr(), forward)

	// Per-flow upstream sockets so return traffic maps back to the flow.
	var mu sync.Mutex
	socks := map[uint32]*net.UDPConn{}

	var ep *tunnel.Endpoint
	upstream := func(flow uint32) *net.UDPConn {
		mu.Lock()
		defer mu.Unlock()
		if c, ok := socks[flow]; ok {
			return c
		}
		c, err := net.DialUDP("udp", nil, dst)
		if err != nil {
			return nil
		}
		socks[flow] = c
		go func() {
			buf := make([]byte, 64*1024)
			for {
				n, err := c.Read(buf)
				if err != nil {
					return
				}
				submit(clock, ep, flow, buf[:n])
			}
		}()
		return c
	}
	ep = startEndpoint(clock, tunnelSock, sessToClient, sessToServer, func(p *network.Packet) {
		if c := upstream(p.Flow); c != nil {
			c.Write(p.Payload)
		}
	})
	return ep
}

// startEndpoint builds this side's tunnel endpoint on the clock's driver
// and starts routing the socket's datagrams to it. send is the session
// this side transmits on, recv the far side's.
func startEndpoint(clock *realtime.Clock, sock *udp.Conn, send, recv uint32, deliver network.Handler) *tunnel.Endpoint {
	var ep *tunnel.Endpoint
	clock.Do(func() {
		ep = tunnel.New(tunnel.Config{Clock: clock, Conn: sock, Send: send, Recv: recv, Deliver: deliver})
	})
	go sock.Serve(ep.Receive)
	return ep
}

// submit queues one client datagram for carriage. Submit copies its bytes
// into a frame before Do returns, so the reader may reuse payload's buffer.
func submit(clock *realtime.Clock, ep *tunnel.Endpoint, flow uint32, payload []byte) {
	clock.Do(func() {
		ep.Ingress.Submit(&network.Packet{Flow: flow, Size: len(payload), Payload: payload, SentAt: clock.Now()})
	})
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sprouttunnel:", err)
		os.Exit(1)
	}
}
