#pragma once

// The JSONL-over-stdio transport for `symcan serve --stdio`.
//
// One request object per input line, one response object per output
// line. The loop is a leader/followers loop: it runs once on every
// thread of a ParallelExecutor of config().jobs threads (--jobs; the
// calling thread included), and each pass goes
//
//   token:  the thread holding the read token waits until fewer than
//           batch_max lines are unanswered, reads and numbers one line,
//           and releases the token to the next thread
//   parse:  a malformed line is answered kInvalid
//   handle: ServeCore::handle answers the request on this thread
//   write:  hand the response to the in-order writer, which emits and
//           flushes every consecutive finished response
//
// The transcript is in arrival order: response k is the answer to the
// k-th non-blank line, whichever thread produced it. batch_max (--batch)
// bounds the lines read but not yet written, which is the reorder window
// behind a slow head-of-line request, and is the only admission bound:
// every line read is answered. A closed-loop client that waits for each
// answer before sending the next line gets it at once. The transcript
// is a pure function of the input lines and the ServeConfig at any
// --jobs width, by the handle() determinism contract; only telemetry
// (flow ids, stamps) varies.
//
// `in` is untied for the run (its old tie is restored on return): every
// write is flushed under the writer's lock, and a tie would flush `out`
// again from the reading thread outside it.

#include <iosfwd>

#include "symcan/serve/core.hpp"

namespace symcan::serve {

/// Run the serve loop until EOF on `in`. Returns the process exit code
/// (0: served until EOF; the per-request exit codes ride inside the
/// responses).
int run_stdio_serve(ServeCore& core, std::istream& in, std::ostream& out);

}  // namespace symcan::serve
