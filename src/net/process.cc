#include "net/process.h"

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "common/check.h"
#include "net/control.h"

namespace eedc::net {

namespace {

std::mutex& RegistryMu() {
  static std::mutex mu;
  return mu;
}

std::set<int>& Registry() {
  static std::set<int> fds;
  return fds;
}

}  // namespace

void RegisterCoordinatorFd(int fd) {
  std::lock_guard<std::mutex> lock(RegistryMu());
  Registry().insert(fd);
}

void UnregisterCoordinatorFd(int fd) {
  std::lock_guard<std::mutex> lock(RegistryMu());
  Registry().erase(fd);
}

void CloseRegisteredFdsInChild() {
  // Fresh single-threaded child: the registry mutex cannot be held (the
  // parent forked while single-threaded), but lock anyway for form.
  std::lock_guard<std::mutex> lock(RegistryMu());
  for (int fd : Registry()) ::close(fd);
  Registry().clear();
}

StatusOr<std::unique_ptr<ProcessFleet>> ProcessFleet::Spawn(
    int num_nodes, const NodeMain& node_main) {
  return Spawn(num_nodes, node_main, Options{});
}

StatusOr<std::unique_ptr<ProcessFleet>> ProcessFleet::Spawn(
    int num_nodes, const NodeMain& node_main, Options options) {
  if (num_nodes <= 0) {
    return Status::InvalidArgument("a process fleet needs >= 1 node");
  }
  // All control pairs exist before the first fork, so every child can
  // close the coordinator ends it must not inherit.
  std::vector<int> parent_fds(static_cast<std::size_t>(num_nodes), -1);
  std::vector<int> child_fds(static_cast<std::size_t>(num_nodes), -1);
  const auto fail_wiring = [&](const std::string& what) {
    for (int fd : parent_fds) {
      if (fd >= 0) {
        UnregisterCoordinatorFd(fd);
        ::close(fd);
      }
    }
    for (int fd : child_fds) {
      if (fd >= 0) ::close(fd);
    }
    return Status::Unavailable(what);
  };
  for (int i = 0; i < num_nodes; ++i) {
    int pair[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, pair) != 0) {
      return fail_wiring("could not create a control socketpair");
    }
    parent_fds[static_cast<std::size_t>(i)] = pair[0];
    child_fds[static_cast<std::size_t>(i)] = pair[1];
    RegisterCoordinatorFd(pair[0]);
  }

  std::vector<Node> nodes(static_cast<std::size_t>(num_nodes));
  const auto kill_brood = [&nodes] {
    for (Node& n : nodes) {
      if (n.pid > 0) {
        ::kill(n.pid, SIGKILL);
        ::waitpid(n.pid, nullptr, 0);
        n.pid = -1;
      }
    }
  };
  // A child inherits unflushed stdio buffers and would write them again
  // when it exits, so every line printed before the fork would repeat.
  std::fflush(nullptr);
  for (int i = 0; i < num_nodes; ++i) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      kill_brood();
      return fail_wiring("fork failed for a node process");
    }
    if (pid == 0) {
      // Child: keep only this node's control fd. Registered coordinator
      // fds cover this fleet's parent ends and any earlier fleet's.
      CloseRegisteredFdsInChild();
      for (int j = 0; j < num_nodes; ++j) {
        if (j != i && child_fds[static_cast<std::size_t>(j)] >= 0) {
          ::close(child_fds[static_cast<std::size_t>(j)]);
        }
      }
      node_main(i, child_fds[static_cast<std::size_t>(i)]);
      _exit(0);  // node_main should _exit itself; belt and braces
    }
    Node& n = nodes[static_cast<std::size_t>(i)];
    n.pid = pid;
    n.control_fd = parent_fds[static_cast<std::size_t>(i)];
    n.alive = true;
    ::close(child_fds[static_cast<std::size_t>(i)]);
    child_fds[static_cast<std::size_t>(i)] = -1;
  }

  // Every node must report for duty before the fleet is usable.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(
                            options.hello_timeout.seconds());
  for (int i = 0; i < num_nodes; ++i) {
    const double left =
        std::chrono::duration<double>(deadline -
                                      std::chrono::steady_clock::now())
            .count();
    StatusOr<ControlMessage> hello = ReceiveControl(
        nodes[static_cast<std::size_t>(i)].control_fd,
        Duration::Seconds(left > 0 ? left : 0));
    if (hello.ok() && hello->type != ControlType::kHello) {
      hello = Status::Internal("node sent a non-hello first message");
    }
    if (!hello.ok()) {
      kill_brood();
      for (int fd : parent_fds) {
        UnregisterCoordinatorFd(fd);
        ::close(fd);
      }
      return Status::DeadlineExceeded(
          "node " + std::to_string(i) +
          " never connected to the coordinator: " +
          hello.status().message());
    }
  }
  return std::unique_ptr<ProcessFleet>(
      new ProcessFleet(std::move(nodes), options));
}

ProcessFleet::~ProcessFleet() { Shutdown(); }

int ProcessFleet::control_fd(int node) const {
  return nodes_[static_cast<std::size_t>(node)].control_fd;
}

pid_t ProcessFleet::pid(int node) const {
  return nodes_[static_cast<std::size_t>(node)].pid;
}

bool ProcessFleet::alive(int node) const {
  return nodes_[static_cast<std::size_t>(node)].alive;
}

void ProcessFleet::ReapAndClose(int node) {
  Node& n = nodes_[static_cast<std::size_t>(node)];
  if (n.pid > 0) {
    ::waitpid(n.pid, nullptr, 0);
    n.pid = -1;
  }
  if (n.control_fd >= 0) {
    UnregisterCoordinatorFd(n.control_fd);
    ::close(n.control_fd);
    n.control_fd = -1;
  }
  n.alive = false;
}

void ProcessFleet::Kill(int node) {
  Node& n = nodes_[static_cast<std::size_t>(node)];
  if (!n.alive) return;
  if (n.pid > 0) ::kill(n.pid, SIGKILL);
  ReapAndClose(node);
}

void ProcessFleet::Shutdown() {
  for (Node& n : nodes_) {
    if (!n.alive || n.control_fd < 0) continue;
    ControlMessage bye;
    bye.type = ControlType::kShutdown;
    // Best-effort: a node that already died exits the wait loop below.
    (void)SendControl(n.control_fd, bye);
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(
                            options_.shutdown_timeout.seconds());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node& n = nodes_[i];
    if (!n.alive) continue;
    bool exited = false;
    while (n.pid > 0 && std::chrono::steady_clock::now() < deadline) {
      if (::waitpid(n.pid, nullptr, WNOHANG) > 0) {
        n.pid = -1;
        exited = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (!exited && n.pid > 0) ::kill(n.pid, SIGKILL);
    ReapAndClose(static_cast<int>(i));
  }
}

}  // namespace eedc::net
