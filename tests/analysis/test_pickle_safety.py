"""Unit tests for the fork/pickle-safety pass (PICK5xx)."""

import ast
import textwrap

from repro.analysis.lint import PragmaIndex
from repro.analysis.pickle_safety import check_pickle_safety


def scan(source):
    source = textwrap.dedent(source)
    tree = ast.parse(source)
    return check_pickle_safety(tree, "mod.py", source.splitlines())


def rules(source):
    return [f.rule for f in scan(source)]


class TestWorkerPayload:
    def test_lambda_in_function_job(self):
        assert rules("""
            def build():
                return FunctionJob("j", lambda s: s)
        """) == ["PICK501"]

    def test_local_function_in_function_job(self):
        assert rules("""
            def build():
                def work(seed):
                    return seed
                return FunctionJob("j", work)
        """) == ["PICK501"]

    def test_module_level_function_is_fine(self):
        assert rules("""
            def work(seed):
                return seed

            def build():
                return FunctionJob("j", work)
        """) == []

    def test_local_class_instance_in_payload(self):
        assert rules("""
            def build():
                class Local:
                    pass
                return FunctionJob("j", run, Local())
        """) == ["PICK502"]

    def test_open_file_in_payload(self):
        assert rules("""
            def build(run):
                handle = open("log.txt")
                return FunctionJob("j", run, handle)
        """) == ["PICK503"]

    def test_resource_in_keyword_argument(self):
        assert rules("""
            import threading

            def build(run):
                lock = threading.Lock()
                return FunctionJob("j", run, guard=lock)
        """) == ["PICK503"]

    def test_resource_inside_container_literal(self):
        assert rules("""
            def build(run):
                conn = open("data.bin")
                return FunctionJob("j", run, [conn])
        """) == ["PICK503"]


class TestSharedContext:
    def test_lambda_as_run_jobs_context(self):
        assert rules("""
            def launch(executor, jobs):
                return executor.run_jobs(jobs, context=lambda: 1)
        """) == ["PICK501"]

    def test_generator_as_context(self):
        assert rules("""
            def launch(executor, jobs, items):
                stream = (i * 2 for i in items)
                return executor.run_jobs(jobs, context=stream)
        """) == ["PICK503"]

    def test_plain_dict_context_is_fine(self):
        assert rules("""
            def launch(executor, jobs):
                return executor.run_jobs(jobs, context={"k": 1})
        """) == []


class TestJobSpecAttributes:
    def test_tainted_attribute_on_simjob_subclass(self):
        # campaign bindings subclass ReplicationJob, not SimJob directly
        for base in ("SimJob", "ReplicationJob"):
            assert rules(f"""
                class MyJob({base}):
                    def __init__(self):
                        self.callback = lambda: 1
            """) == ["PICK501"], base

    def test_resource_attribute_on_job_spec(self):
        assert rules("""
            class MyJob(SimJob):
                def __init__(self, path):
                    self.handle = open(path)
        """) == ["PICK503"]

    def test_plain_attribute_is_fine(self):
        assert rules("""
            class MyJob(SimJob):
                def __init__(self, n):
                    self.n = n
        """) == []

    def test_non_job_class_attributes_unchecked(self):
        assert rules("""
            class Helper:
                def __init__(self):
                    self.callback = lambda: 1
        """) == []


class TestSnapshotBoundary:
    def test_lambda_share_root(self):
        assert rules("""
            def setup(sim):
                sim.share(lambda: 1)
        """) == ["PICK501"]

    def test_scheduled_lambda_flagged_when_file_snapshots(self):
        assert rules("""
            def setup(sim):
                sim.schedule(1.0, lambda: 1)
                return sim.snapshot()
        """) == ["PICK511"]

    def test_scheduled_lambda_ignored_without_snapshot(self):
        # no .snapshot()/.fork() anywhere: the callback never crosses
        # a serialization boundary, so PICK511 stays silent
        assert rules("""
            def setup(sim):
                sim.schedule(1.0, lambda: 1)
        """) == []

    def test_scheduled_local_closure_flagged(self):
        assert rules("""
            def setup(sim):
                def tick():
                    sim.post(1.0, tick)
                sim.post(1.0, tick)
                return sim.fork()
        """) == ["PICK511", "PICK511"]


class TestCheckpointBoundary:
    def test_lambda_in_checkpoint_plan(self):
        assert rules("""
            def persist(spec):
                return CheckpointStore(spec, plan=(lambda: 1, 3))
        """) == ["PICK501"]


class TestPragmaSuppression:
    def test_line_pragma_suppresses_pick(self):
        source = textwrap.dedent("""
            def build():
                return FunctionJob("j", lambda s: s)  # repro: allow[PICK501]
        """)
        tree = ast.parse(source)
        findings = check_pickle_safety(tree, "mod.py", source.splitlines())
        pragmas = PragmaIndex.scan(source.splitlines())
        kept = [
            f for f in findings
            if not pragmas.suppresses(f, f.end_line)
        ]
        assert [f.rule for f in findings] == ["PICK501"]
        assert kept == []

    def test_file_pragma_suppresses_family_rule(self):
        source = textwrap.dedent("""
            # repro: allow-file[PICK501]
            def build():
                return FunctionJob("j", lambda s: s)
        """)
        tree = ast.parse(source)
        findings = check_pickle_safety(tree, "mod.py", source.splitlines())
        pragmas = PragmaIndex.scan(source.splitlines())
        assert all(pragmas.suppresses(f, f.end_line) for f in findings)


class TestBoundaryNaming:
    def test_messages_name_the_boundary(self):
        findings = scan("""
            def build():
                return FunctionJob("j", lambda s: s)
        """)
        assert "worker pipe" in findings[0].message

    def test_share_names_snapshot_boundary(self):
        findings = scan("""
            def setup(sim):
                sim.share(lambda: 1)
        """)
        assert "snapshot boundary" in findings[0].message
