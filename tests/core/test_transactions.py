"""Tests for transactions: commit, abort, constraint-driven rollback."""

import pytest

from repro.core import Database, IntField, OdeObject, StringField, constraint
from repro.errors import ConstraintViolation, TransactionError


class TxnAccount(OdeObject):
    owner = StringField(default="")
    balance = IntField(default=0)

    def withdraw(self, n):
        self.balance -= n

    def deposit(self, n):
        self.balance += n

    @constraint
    def solvent(self):
        return self.balance >= 0


class TestCommit:
    def test_commit_persists(self, db):
        db.create(TxnAccount)
        a = db.pnew(TxnAccount, owner="ann", balance=100)
        with db.transaction():
            a.deposit(50)
        db._cache.clear()
        assert db.deref(a.oid).balance == 150

    def test_multiple_objects_one_txn(self, db):
        db.create(TxnAccount)
        a = db.pnew(TxnAccount, owner="a", balance=100)
        b = db.pnew(TxnAccount, owner="b", balance=0)
        with db.transaction():
            a.withdraw(30)
            b.deposit(30)
        db._cache.clear()
        assert db.deref(a.oid).balance == 70
        assert db.deref(b.oid).balance == 30

    def test_no_nesting(self, db):
        with pytest.raises(TransactionError):
            with db.transaction():
                with db.transaction():
                    pass


class TestAbort:
    def test_exception_aborts(self, db):
        db.create(TxnAccount)
        a = db.pnew(TxnAccount, balance=100)
        with pytest.raises(RuntimeError):
            with db.transaction():
                a.deposit(999)
                raise RuntimeError("user error")
        assert a.balance == 100  # live object reverted
        db._cache.clear()
        assert db.deref(a.oid).balance == 100

    def test_abort_restores_pnew(self, db):
        db.create(TxnAccount)
        created = []
        with pytest.raises(RuntimeError):
            with db.transaction():
                created.append(db.pnew(TxnAccount, owner="ghost"))
                raise RuntimeError()
        ghost = created[0]
        assert not ghost.is_persistent  # unbound back to volatile
        assert db.cluster(TxnAccount).count() == 0

    def test_abort_restores_pdelete(self, db):
        db.create(TxnAccount)
        a = db.pnew(TxnAccount, owner="keep", balance=5)
        oid = a.oid
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.pdelete(a)
                raise RuntimeError()
        restored = db.deref(oid)
        assert restored.owner == "keep" and restored.balance == 5

    def test_constraint_violation_aborts_whole_txn(self, db):
        """Paper section 5 / footnote 17: violation aborts and rolls back."""
        db.create(TxnAccount)
        a = db.pnew(TxnAccount, balance=100)
        b = db.pnew(TxnAccount, balance=100)
        with pytest.raises(ConstraintViolation):
            with db.transaction():
                b.deposit(1000)       # fine, but must also roll back
                a.withdraw(500)       # violates `solvent` at method end
        assert a.balance == 100
        assert b.balance == 100

    def test_violation_at_commit_time(self, db):
        """A plain attribute write is only checked at commit — and the
        commit must abort."""
        db.create(TxnAccount)
        a = db.pnew(TxnAccount, balance=10)
        with pytest.raises(ConstraintViolation):
            with db.transaction():
                a.balance = -5  # no method call; caught at commit
        assert db.deref(a.oid).balance == 10

    def test_violation_outside_txn_reverts_object(self, db):
        db.create(TxnAccount)
        a = db.pnew(TxnAccount, balance=10)
        with pytest.raises(ConstraintViolation):
            a.withdraw(100)
        assert a.balance == 10

    def test_pnew_constraint_checked(self, db):
        db.create(TxnAccount)
        with pytest.raises(ConstraintViolation):
            db.pnew(TxnAccount, balance=-1)
        assert db.cluster(TxnAccount).count() == 0


class TestAutocommit:
    def test_operations_outside_txn_autocommit(self, db_path):
        db = Database(db_path)
        db.create(TxnAccount)
        a = db.pnew(TxnAccount, owner="auto", balance=1)  # implicit txn
        oid = a.oid
        db.close()
        db2 = Database(db_path)
        assert db2.deref(oid).owner == "auto"
        db2.close()

    def test_close_inside_txn_rejected(self, db):
        with db.transaction():
            with pytest.raises(TransactionError):
                db.close()
