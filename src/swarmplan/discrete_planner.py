"""Grid-stage planner: time-expanded flow graph with downwash conflicts.

The formation change is first solved on the grid.  Robots move in lock
step; at every step a robot waits or moves to a free 6-neighbor cell.  A
synchronized plan with K steps is exactly a unit flow of value N through
a time-expanded graph with K+1 layers:

 * every free cell v and layer k get a vertex pair u(v,k) -> w(v,k), and
   the unit edges between layers bound cell occupancy at one robot,
 * a move along an environment edge {v1, v2} during step k is routed
   through a five-edge gadget whose single internal arc has capacity one,
   so the edge carries at most one robot per step and never a swap,
 * the arc w(v,k) -> u(v,k+1) holds the robot that occupies v at index
   k+1.

Downwash restrictions that unit capacities cannot express become conflict
rows of a binary program: cells in the same vertical column closer than
the ellipsoid height must not hold robots at the same time (annotated on
the w -> u arcs), and the same horizontal grid edge must not be crossed
in opposite directions at nearby heights in the same step (annotated on
gadget exit arcs, which identify the traversal direction).  Maximizing
routed flow subject to conservation and those rows gives the minimum
number of steps; a conflict-free max flow provides the lower bound that
seeds the search over K.
"""

from __future__ import annotations

import itertools
import json
from collections import defaultdict, deque
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import opt_engine
from .opt_engine import BinaryILP, FlowNetwork, ILPInfeasibleError

_AXIS_STEPS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


class DiscreteInfeasibleError(Exception):
    """No synchronized grid plan exists within the step budget."""


class EnvironmentGraph:
    """Free cells of a scenario and the adjacency between them."""

    def __init__(self, scenario):
        self.scenario = scenario
        self.cells = scenario.free_cells()
        self.index = {c: i for i, c in enumerate(self.cells)}
        edges = []
        for i, c in enumerate(self.cells):
            for dx, dy, dz in _AXIS_STEPS:
                j = self.index.get((c[0] + dx, c[1] + dy, c[2] + dz))
                if j is not None:
                    edges.append((i, j))
        self.edges = edges
        self.adjacency = defaultdict(list)
        for i, j in edges:
            self.adjacency[i].append(j)
            self.adjacency[j].append(i)
        # the tightest time expansion lower_bound_makespan found routable,
        # by K; solve_discrete starts there and takes it instead of
        # building it again
        self.routed = {}

    def distances_from(self, seed_cells):
        """BFS hop counts from a set of cells; inf where unreachable."""
        dist = np.full(len(self.cells), np.inf)
        queue = deque()
        for c in seed_cells:
            i = self.index.get(tuple(c))
            if i is not None and not np.isfinite(dist[i]):
                dist[i] = 0.0
                queue.append(i)
        while queue:
            i = queue.popleft()
            for j in self.adjacency[i]:
                if not np.isfinite(dist[j]):
                    dist[j] = dist[i] + 1.0
                    queue.append(j)
        return dist

    def component_labels(self):
        labels = np.full(len(self.cells), -1, dtype=int)
        current = 0
        for seed in range(len(self.cells)):
            if labels[seed] >= 0:
                continue
            labels[seed] = current
            queue = deque([seed])
            while queue:
                i = queue.popleft()
                for j in self.adjacency[i]:
                    if labels[j] < 0:
                        labels[j] = current
                        queue.append(j)
            current += 1
        return labels


def _check_goal_reachability(scenario, env):
    """Goals must be coverable by the starts component by component."""
    labels = env.component_labels()
    start_counts = defaultdict(int)
    for s in scenario.starts:
        start_counts[labels[env.index[s]]] += 1
    goal_counts = defaultdict(int)
    for g in scenario.goals:
        goal_counts[labels[env.index[g]]] += 1
    for g in scenario.goals:
        comp = labels[env.index[g]]
        if start_counts[comp] == 0:
            raise DiscreteInfeasibleError(
                f"goal cell {g} is unreachable from every start"
            )
        if goal_counts[comp] > start_counts[comp]:
            raise DiscreteInfeasibleError(
                f"the region containing goal cell {g} holds "
                f"{goal_counts[comp]} goals but only {start_counts[comp]} starts"
            )


class TimeExpandedGraph:
    """K+1 layer expansion of the environment for one candidate makespan.

    Layers are pruned by reachability: an arc exists only if its tail can
    be reached from some start in time and its head can still reach some
    goal, which leaves the routable flow unchanged.
    """

    SOURCE = 0
    SINK = 1

    def __init__(self, scenario, env, K):
        self.scenario = scenario
        self.env = env
        self.K = K

        dist_s = env.distances_from(scenario.starts)
        dist_g = env.distances_from(scenario.goals)
        goal_ids = {env.index[g]: gi for gi, g in enumerate(scenario.goals)}

        def u_ok(v, k):
            return dist_s[v] <= k and dist_g[v] <= K - k

        def w_ok(v, k):
            if k == K:
                return v in goal_ids and dist_s[v] <= K
            return dist_s[v] <= k + 1 and dist_g[v] <= K - k - 1

        self._next_id = 2
        self._u = {}
        self._w = {}

        def uid(v, k):
            key = (v, k)
            if key not in self._u:
                self._u[key] = self._next_id
                self._next_id += 1
            return self._u[key]

        def wid(v, k):
            key = (v, k)
            if key not in self._w:
                self._w[key] = self._next_id
                self._next_id += 1
            return self._w[key]

        def fresh():
            self._next_id += 1
            return self._next_id - 1

        tails, heads, kinds, infos = [], [], [], []

        def add(tail, head, kind, info):
            tails.append(tail)
            heads.append(head)
            kinds.append(kind)
            infos.append(info)

        for s in scenario.starts:
            v = env.index[s]
            if u_ok(v, 0):
                add(self.SOURCE, uid(v, 0), "source", v)

        num_cells = len(env.cells)
        for k in range(K + 1):
            for v in range(num_cells):
                if u_ok(v, k) and w_ok(v, k):
                    add(uid(v, k), wid(v, k), "intra", (v, k))
            if k == K:
                break
            for e, (v1, v2) in enumerate(env.edges):
                entries = [v for v in (v1, v2) if u_ok(v, k)]
                exits = [v for v in (v1, v2) if w_ok(v, k)]
                if not entries or not exits:
                    continue
                a = fresh()
                b = fresh()
                for v in entries:
                    add(uid(v, k), a, "g_in", (e, k, v))
                add(a, b, "g_ab", (e, k))
                for v in exits:
                    add(b, wid(v, k), "g_out", (e, k, v))
            for v in range(num_cells):
                if w_ok(v, k):
                    add(wid(v, k), uid(v, k + 1), "green", (v, k))

        for g in scenario.goals:
            v = env.index[g]
            if w_ok(v, K):
                add(wid(v, K), self.SINK, "sink", (v, goal_ids[v]))

        self.tails = tails
        self.heads = heads
        self.kinds = kinds
        self.infos = infos
        self.num_vertices = self._next_id
        self.conflicts = self._annotate_conflicts()

    def _annotate_conflicts(self):
        """Downwash conflict sets, keyed by arc index.

        Column rule: two robots may share an xy column only with vertical
        clearance of a full ellipsoid height.  Crossing rule: one grid edge
        crossed in both directions during the same step collides at the
        midpoint unless the two heights clear the same margin.  Touching
        exactly at the margin is allowed, hence the strict threshold.
        """
        cells = self.env.cells
        cs = self.scenario.grid.cell_size
        threshold = 2.0 * self.scenario.radii[2] - 1e-9

        con = defaultdict(set)
        by_column = defaultdict(list)
        by_line = defaultdict(list)
        for idx, kind in enumerate(self.kinds):
            if kind == "green":
                v, k = self.infos[idx]
                x, y, z = cells[v]
                by_column[(k, x, y)].append((z, idx))
            elif kind == "g_out":
                e, k, v_exit = self.infos[idx]
                v1, v2 = self.env.edges[e]
                v_from = v2 if v_exit == v1 else v1
                cf, ct = cells[v_from], cells[v_exit]
                if cf[2] != ct[2]:
                    continue  # vertical moves: endpoints in the column rule suffice
                key = (k,) + tuple(sorted((cf[:2], ct[:2])))
                by_line[key].append((cf[:2], cf[2], idx))

        for items in by_column.values():
            for (za, ea), (zb, eb) in itertools.combinations(items, 2):
                if abs(za - zb) * cs < threshold:
                    con[ea].add(eb)
                    con[eb].add(ea)
        for items in by_line.values():
            # direction is identified by the entry column; a pair from the
            # same gadget (equal heights) is already exclusive via its
            # internal arc, so only distinct heights are annotated.
            for (fa, za, ea), (fb, zb, eb) in itertools.combinations(items, 2):
                if fa != fb and za != zb and abs(za - zb) * cs < threshold:
                    con[ea].add(eb)
                    con[eb].add(ea)
        return con

    def flow_network(self):
        return FlowNetwork(
            num_vertices=self.num_vertices,
            edges=list(zip(self.tails, self.heads)),
            source=self.SOURCE,
            sink=self.SINK,
        )

    def binary_program(self):
        n = len(self.tails)
        c = np.zeros(n)
        for idx, kind in enumerate(self.kinds):
            if kind == "source":
                c[idx] = 1.0

        vertex_row = {}
        rows, cols, vals = [], [], []
        for idx, (t, h) in enumerate(zip(self.tails, self.heads)):
            for vertex, sign in ((h, 1.0), (t, -1.0)):
                if vertex in (self.SOURCE, self.SINK):
                    continue
                r = vertex_row.setdefault(vertex, len(vertex_row))
                rows.append(r)
                cols.append(idx)
                vals.append(sign)
        A_eq = sparse.csr_matrix((vals, (rows, cols)), shape=(len(vertex_row), n))
        b_eq = np.zeros(len(vertex_row))

        seen = set()
        rows, cols, vals = [], [], []
        r = 0
        for idx in sorted(self.conflicts):
            members = tuple(sorted({idx, *self.conflicts[idx]}))
            if members in seen:
                continue
            seen.add(members)
            for j in members:
                rows.append(r)
                cols.append(j)
                vals.append(1.0)
            r += 1
        A_in = sparse.csr_matrix((vals, (rows, cols)), shape=(r, n))
        b_in = np.ones(r)
        return BinaryILP(c=c, A_eq=A_eq, b_eq=b_eq, A_in=A_in, b_in=b_in)

    def extract_paths(self, z):
        """Decompose an integral unit flow into one cell path per robot.

        Every u and w vertex passes at most one unit, so following the
        flow from each source arc is unambiguous.  A gadget entered and
        left at the same cell counts as a wait.
        """
        active = [i for i, v in enumerate(z) if v > 0.5]
        out_arcs = defaultdict(list)
        for idx in active:
            out_arcs[self.tails[idx]].append(idx)

        def step(vertex):
            arcs = out_arcs[vertex]
            if len(arcs) != 1:
                raise opt_engine.SolverError(
                    f"flow decomposition expected one outgoing unit at "
                    f"vertex {vertex}, found {len(arcs)}"
                )
            return arcs[0]

        paths = []
        goal_choice = []
        for idx in sorted(out_arcs[self.SOURCE]):
            v = self.infos[idx]
            path = [v]
            vertex = self.heads[idx]
            for k in range(self.K):
                arc = step(vertex)
                if self.kinds[arc] == "g_in":
                    arc = step(self.heads[arc])  # internal a -> b
                    arc = step(self.heads[arc])  # b -> exit
                    path.append(self.infos[arc][2])
                else:
                    path.append(self.infos[arc][0])
                green = step(self.heads[arc])
                vertex = self.heads[green]
            arc = step(vertex)  # final intra
            sink_arc = step(self.heads[arc])
            goal_choice.append(self.infos[sink_arc][1])
            paths.append(path)
        return paths, goal_choice


@dataclass
class DiscretePlan:
    """Synchronized waypoint plan: one position per robot per time index.

    waypoints holds world coordinates with shape (robots, steps + 1, 3).
    cell_paths keeps the raw grid indices the plan came from; refinement
    stages leave it untouched so the provenance of the waypoints stays
    inspectable.
    """

    dt: float
    waypoints: np.ndarray
    assignment: list
    cell_paths: list | None = None

    def __post_init__(self):
        self.waypoints = np.asarray(self.waypoints, dtype=float)
        if self.waypoints.ndim != 3 or self.waypoints.shape[2] != 3:
            raise ValueError("waypoints must have shape (robots, steps + 1, 3)")
        self.assignment = [int(a) for a in self.assignment]

    @property
    def num_robots(self):
        return self.waypoints.shape[0]

    @property
    def num_segments(self):
        return self.waypoints.shape[1] - 1

    @property
    def duration(self):
        return self.dt * self.num_segments

    def postprocessed(self):
        """Halve every segment and pad both ends with a standstill step.

        The midpoint split makes each new segment cover half a grid move,
        which the corridor construction needs, and the padded ends give
        the smooth trajectories room to accelerate from and brake to rest
        without leaving the first and last cells early.
        """
        wp = self.waypoints
        n, t1, _ = wp.shape
        doubled = np.empty((n, 2 * t1 - 1, 3))
        doubled[:, 0::2] = wp
        doubled[:, 1::2] = 0.5 * (wp[:, :-1] + wp[:, 1:])
        padded = np.concatenate([doubled[:, :1], doubled, doubled[:, -1:]], axis=1)
        return DiscretePlan(
            dt=0.5 * self.dt,
            waypoints=padded,
            assignment=self.assignment,
            cell_paths=self.cell_paths,
        )

    def to_dict(self):
        return {
            "dt": self.dt,
            "assignment": list(self.assignment),
            "waypoints": self.waypoints.tolist(),
            "cell_paths": self.cell_paths,
        }

    def save(self, path):
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")

    @classmethod
    def from_dict(cls, data):
        cell_paths = data.get("cell_paths")
        if cell_paths is not None:
            cell_paths = [[tuple(c) for c in path] for path in cell_paths]
        return cls(
            dt=data["dt"],
            waypoints=np.asarray(data["waypoints"], dtype=float),
            assignment=data["assignment"],
            cell_paths=cell_paths,
        )

    @classmethod
    def load(cls, path):
        with open(path) as f:
            return cls.from_dict(json.load(f))


def check_discrete_rules(cell_paths, scenario):
    """All motion rules a synchronized grid plan must satisfy.

    Returns a list of human-readable violations; an empty list means the
    plan is valid.  Used by tests and as a cheap self-check after the
    flow decomposition.
    """
    problems = []
    n = len(cell_paths)
    if n != scenario.num_robots:
        return [f"plan has {n} paths for {scenario.num_robots} robots"]
    lengths = {len(p) for p in cell_paths}
    if len(lengths) != 1:
        return [f"paths have mixed lengths {sorted(lengths)}"]
    steps = lengths.pop() - 1

    cs = scenario.grid.cell_size
    threshold = 2.0 * scenario.radii[2] - 1e-9

    for i, path in enumerate(cell_paths):
        if tuple(path[0]) != scenario.starts[i]:
            problems.append(f"robot {i} starts at {path[0]} instead of {scenario.starts[i]}")
        for k in range(steps):
            a, b = tuple(path[k]), tuple(path[k + 1])
            delta = sorted(abs(x - y) for x, y in zip(a, b))
            if delta not in ([0, 0, 0], [0, 0, 1]):
                problems.append(f"robot {i} makes an illegal move {a} -> {b} at step {k}")
            if not scenario.is_free(b):
                problems.append(f"robot {i} enters blocked cell {b} at step {k + 1}")
        if not scenario.is_free(tuple(path[0])):
            problems.append(f"robot {i} starts in blocked cell {path[0]}")

    finals = sorted(tuple(p[-1]) for p in cell_paths)
    if finals != sorted(scenario.goals):
        problems.append(f"final cells {finals} are not the goal set")

    for k in range(steps + 1):
        positions = [tuple(p[k]) for p in cell_paths]
        for i in range(n):
            for j in range(i + 1, n):
                a, b = positions[i], positions[j]
                if a == b:
                    problems.append(f"robots {i} and {j} share cell {a} at index {k}")
                elif a[:2] == b[:2] and abs(a[2] - b[2]) * cs < threshold:
                    problems.append(
                        f"robots {i} and {j} stack too closely in column "
                        f"{a[:2]} at index {k}"
                    )

    for k in range(steps):
        for i in range(n):
            for j in range(i + 1, n):
                a1, b1 = tuple(cell_paths[i][k]), tuple(cell_paths[i][k + 1])
                a2, b2 = tuple(cell_paths[j][k]), tuple(cell_paths[j][k + 1])
                if a1 == b2 and a2 == b1 and a1 != a2:
                    problems.append(f"robots {i} and {j} swap cells at step {k}")
                elif (
                    a1[:2] == b2[:2]
                    and b1[:2] == a2[:2]
                    and a1[:2] != b1[:2]
                    and abs(a1[2] - b2[2]) * cs < threshold
                    and abs(b1[2] - a2[2]) * cs < threshold
                ):
                    problems.append(
                        f"robots {i} and {j} cross the same edge "
                        f"{a1[:2]} - {b1[:2]} in opposite directions at step {k}"
                    )
    return problems


def lower_bound_makespan(scenario, env=None, k_max=None):
    """Smallest K whose conflict-free time expansion routes all robots.

    Downwash rows only remove flow, so this bounds the true optimum from
    below.  Found by doubling then bisecting on K.
    """
    env = env or EnvironmentGraph(scenario)
    _check_goal_reachability(scenario, env)
    n = scenario.num_robots
    cap = k_max if k_max is not None else max(1, 10 * scenario.grid.manhattan_diameter)

    def routable(K):
        graph = TimeExpandedGraph(scenario, env, K)
        value, _ = opt_engine.max_flow(graph.flow_network())
        if value >= n:
            # every later routable K is smaller: keep only the newest
            env.routed = {K: graph}
        return value >= n

    if routable(0):
        return 0
    low = 0  # known infeasible
    high = 1
    while not routable(high):
        if high >= cap:
            raise DiscreteInfeasibleError(
                f"not all robots can reach goals within {cap} steps; the "
                f"grid may be too congested"
            )
        low = high
        high = min(2 * high, cap)
    while high - low > 1:
        mid = (low + high) // 2
        if routable(mid):
            high = mid
        else:
            low = mid
    return high


def solve_discrete(scenario, k_max=None, node_limit=20000):
    """Makespan-optimal synchronized grid plan for a scenario.

    Searches K upward from the flow lower bound; the first K whose
    conflict-constrained program routes all robots is optimal.
    """
    env = EnvironmentGraph(scenario)
    lb = lower_bound_makespan(scenario, env, k_max)
    cap = k_max if k_max is not None else max(lb, 10 * scenario.grid.manhattan_diameter)
    n = scenario.num_robots

    for K in range(lb, cap + 1):
        graph = env.routed.pop(K, None) or TimeExpandedGraph(scenario, env, K)
        try:
            result = opt_engine.solve_ilp(
                graph.binary_program(), target=n, node_limit=node_limit
            )
        except ILPInfeasibleError:
            continue
        cell_paths, goal_choice = graph.extract_paths(result.z)

        # Flow paths are attached to start cells, not robots; match them
        # back to the scenario's robot order.
        by_start = {p[0]: (p, g) for p, g in zip(cell_paths, goal_choice)}
        ordered_paths = []
        assignment = []
        for s in scenario.starts:
            path, g = by_start[env.index[s]]
            ordered_paths.append([env.cells[v] for v in path])
            assignment.append(g)

        problems = check_discrete_rules(ordered_paths, scenario)
        if problems:
            raise opt_engine.SolverError(
                "flow solution violates motion rules: " + "; ".join(problems[:3])
            )
        waypoints = np.array(
            [[scenario.grid.cell_center(c) for c in path] for path in ordered_paths]
        )
        return DiscretePlan(
            dt=scenario.dt,
            waypoints=waypoints,
            assignment=assignment,
            cell_paths=[[tuple(c) for c in p] for p in ordered_paths],
        )
    raise DiscreteInfeasibleError(f"no conflict-free grid plan within {cap} steps")
