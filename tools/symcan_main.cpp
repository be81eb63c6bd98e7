// The symcan command-line tool. All logic lives in symcan/cli (library)
// so the commands are unit-tested; this translation unit only adapts
// argv and the standard streams.
//
// The standard streams are not synchronized with C stdio: a synchronized
// stream costs one C-stdio call (and, once threads exist, one FILE lock)
// per byte, which made `serve --stdio --jobs 4` slower than `--jobs 1`.
// No symcan code writes through C stdio, so output cannot interleave;
// CI greps src/ and tools/ to keep it that way.

#include <iostream>
#include <string>
#include <vector>

#include "symcan/cli/commands.hpp"

int main(int argc, char** argv) {
  std::ios::sync_with_stdio(false);
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc > 0 ? argc - 1 : 0));
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  return symcan::cli::run_cli(args, std::cout, std::cerr);
}
